//! The threaded TCP front door over [`QueryService`].
//!
//! GUPT is a *service* (paper §3.1): analysts hand programs to a
//! computation manager that enforces the privacy budget for them. This
//! module is that network boundary — a [`GuptServer`] owns a TCP
//! listener, a bounded connection queue and a pool of worker threads;
//! every worker speaks the [`crate::protocol`] frame format and
//! dispatches into the shared [`QueryService`], so the admission
//! controller, the privacy ledger and the per-principal quota books
//! remain the single source of truth no matter how many sockets are
//! open.
//!
//! Shutdown is cooperative: the handle (or a `shutdown` request) sets a
//! flag, wakes the acceptor with a loopback connection and severs every
//! active socket, so no thread is ever blocked past shutdown.

use crate::catalog;
use crate::json::{self, Value};
use crate::latency::LatencyHistogram;
use crate::protocol::{
    bad_request, error_response, json_f64, json_string, read_frame, sql_error_response,
    version_supported, write_frame, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use gupt_core::telemetry::ServeTelemetry;
use gupt_core::{
    ContinuousQuery, GuptError, PrivateAnswer, QueryService, QuerySpec, RangeEstimation, WindowKey,
    WindowSpec,
};
use gupt_dp::{Epsilon, OutputRange};
use gupt_sql::{SqlAnswer, SqlOptions, SqlRuntime, DEFAULT_MIN_COUNT};
use std::collections::{BTreeMap, VecDeque};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Tunables of one server instance.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads handling connections. Each worker owns one
    /// connection at a time; concurrency *inside* a connection is
    /// bounded by the service's admission controller, not by this.
    pub workers: usize,
}

impl ServeConfig {
    /// `workers` threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        ServeConfig {
            workers: workers.max(1),
        }
    }
}

impl Default for ServeConfig {
    /// Eight connection workers.
    fn default() -> Self {
        ServeConfig::new(8)
    }
}

/// Shared state between the acceptor, the workers and the handle.
struct ServeState {
    service: QueryService,
    shutdown: AtomicBool,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    accepted: AtomicU64,
    refused: AtomicU64,
    in_flight: AtomicUsize,
    /// Service time of every answered request, for the `stats` p50/p99.
    latencies_us: LatencyHistogram,
    active: Mutex<Vec<(u64, TcpStream)>>,
    next_conn_id: AtomicU64,
    /// Per-principal ingest attribution: principal → (appends, rows).
    /// Only named appends are recorded; anonymous appends show up in
    /// the runtime's per-dataset ingest counters but not here.
    append_principals: Mutex<BTreeMap<String, (u64, u64)>>,
    /// Continuous-query handles registered over the wire (v3), keyed by
    /// the runtime's subscription id so any connection can poll any
    /// subscription. Budget and cursor state live in the runtime; this
    /// map only keeps the handles addressable.
    subscriptions: Mutex<BTreeMap<u64, ContinuousQuery>>,
}

/// Point-in-time serve-plane counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered with status `ok`.
    pub accepted: u64,
    /// Requests answered with any error status.
    pub refused: u64,
    /// Requests being processed right now.
    pub in_flight: usize,
}

/// The serve plane: a running listener plus its worker pool.
pub struct GuptServer;

/// Handle to a running server: address, observability, shutdown.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    state: Arc<ServeState>,
    acceptor: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl GuptServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the acceptor and worker threads over `service`.
    pub fn bind(
        service: QueryService,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let state = Arc::new(ServeState {
            service,
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            accepted: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            latencies_us: LatencyHistogram::new(),
            active: Mutex::new(Vec::new()),
            next_conn_id: AtomicU64::new(0),
            append_principals: Mutex::new(BTreeMap::new()),
            subscriptions: Mutex::new(BTreeMap::new()),
        });

        let acceptor_state = Arc::clone(&state);
        let acceptor = thread::spawn(move || {
            for stream in listener.incoming() {
                if acceptor_state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let mut queue = lock(&acceptor_state.queue);
                queue.push_back(stream);
                drop(queue);
                acceptor_state.queue_cv.notify_one();
            }
        });

        let workers = (0..config.workers)
            .map(|_| {
                let st = Arc::clone(&state);
                thread::spawn(move || worker_loop(&st))
            })
            .collect();

        Ok(ServerHandle {
            addr: local,
            state,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Point-in-time serve counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            accepted: self.state.accepted.load(Ordering::Relaxed),
            refused: self.state.refused.load(Ordering::Relaxed),
            in_flight: self.state.in_flight.load(Ordering::Relaxed),
        }
    }

    /// Builds the schema-v4 `serve` telemetry object: counters,
    /// per-principal ε spent aggregated across datasets, and latency
    /// percentiles over every request answered so far (read from a
    /// fixed log-bucket histogram, within 1/16 of the exact value).
    pub fn serve_telemetry(&self) -> ServeTelemetry {
        serve_telemetry(&self.state)
    }

    /// Whether shutdown has been requested (by the handle or a
    /// `shutdown` request on the wire).
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until shutdown is requested, then tears the server down.
    pub fn wait(mut self) {
        while !self.state.shutdown.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(25));
        }
        self.teardown();
    }

    /// Requests shutdown and joins every thread.
    pub fn shutdown(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        request_shutdown(&self.state);
        // Unblock the acceptor with a loopback connection.
        let _ = TcpStream::connect(self.addr);
        // Sever active connections so no worker stays blocked in a read.
        for (_, stream) in lock(&self.state.active).iter() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.teardown();
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Sets the shutdown flag and wakes every idle worker. The flag is set
/// under the queue lock: a worker reads it under that lock before it
/// waits, so a notify can no longer land between its check and its
/// wait and be lost, leaving the worker asleep and `teardown` blocked
/// joining it.
fn request_shutdown(state: &ServeState) {
    let queue = lock(&state.queue);
    state.shutdown.store(true, Ordering::SeqCst);
    drop(queue);
    state.queue_cv.notify_all();
}

fn worker_loop(state: &Arc<ServeState>) {
    loop {
        let stream = {
            let mut queue = lock(&state.queue);
            loop {
                if let Some(s) = queue.pop_front() {
                    break Some(s);
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = state
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(|p| p.into_inner());
            }
        };
        match stream {
            None => return,
            Some(stream) => handle_connection(state, stream),
        }
    }
}

fn handle_connection(state: &Arc<ServeState>, mut stream: TcpStream) {
    let conn_id = state.next_conn_id.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        lock(&state.active).push((conn_id, clone));
    }
    let _ = stream.set_nodelay(true);
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => break, // clean EOF between frames
            Err(_) => {
                // Torn or oversized frame: tell the peer if it is still
                // listening, then drop the connection — framing is lost.
                let _ = write_frame(&mut stream, &bad_request("malformed frame"));
                break;
            }
        };
        state.in_flight.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let (response, ok, shutdown_requested) = handle_request(state, &payload);
        let elapsed_us = start.elapsed().as_micros() as u64;
        state.in_flight.fetch_sub(1, Ordering::Relaxed);
        state.latencies_us.record(elapsed_us);
        if ok {
            state.accepted.fetch_add(1, Ordering::Relaxed);
        } else {
            state.refused.fetch_add(1, Ordering::Relaxed);
        }
        if write_frame(&mut stream, &response).is_err() {
            break;
        }
        if shutdown_requested {
            request_shutdown(state);
            break;
        }
    }
    lock(&state.active).retain(|(id, _)| *id != conn_id);
}

/// Dispatches one request payload. Returns `(response, ok, shutdown)`.
fn handle_request(state: &Arc<ServeState>, payload: &str) -> (String, bool, bool) {
    let doc = match json::parse(payload) {
        Ok(v) => v,
        Err(e) => return (bad_request(&format!("invalid JSON: {e}")), false, false),
    };
    let version = doc.get("v").and_then(Value::as_number);
    let Some(version) = version.filter(|v| version_supported(*v)) else {
        return (
            bad_request(&format!(
                "unsupported protocol version {version:?}; this server speaks \
                 v{MIN_PROTOCOL_VERSION} through v{PROTOCOL_VERSION}"
            )),
            false,
            false,
        );
    };
    let Some(op) = doc.get("op").and_then(Value::as_str) else {
        return (bad_request("missing \"op\""), false, false);
    };
    match op {
        "query" => match op_query(state, &doc) {
            Ok(body) => (body, true, false),
            Err(resp) => (resp, false, false),
        },
        "batch" => match op_batch(state, &doc) {
            Ok(body) => (body, true, false),
            Err(resp) => (resp, false, false),
        },
        // The ingest op is new in v2; a v1 client that somehow sends it
        // gets a version hint rather than "unknown op".
        "append" if version < 2.0 => (
            bad_request("op \"append\" requires protocol v2"),
            false,
            false,
        ),
        "append" => match op_append(state, &doc) {
            Ok(body) => (body, true, false),
            Err(resp) => (resp, false, false),
        },
        // The streaming ops are new in v3; older clients get a version
        // hint rather than "unknown op".
        "subscribe" | "poll" if version < 3.0 => (
            bad_request(&format!("op {op:?} requires protocol v3")),
            false,
            false,
        ),
        "subscribe" => match op_subscribe(state, &doc) {
            Ok(body) => (body, true, false),
            Err(resp) => (resp, false, false),
        },
        "poll" => match op_poll(state, &doc) {
            Ok(body) => (body, true, false),
            Err(resp) => (resp, false, false),
        },
        // The DP-SQL op is new in v4; older clients get a version hint
        // rather than "unknown op".
        "sql" if version < 4.0 => (bad_request("op \"sql\" requires protocol v4"), false, false),
        "sql" => match op_sql(state, &doc) {
            Ok(body) => (body, true, false),
            Err(resp) => (resp, false, false),
        },
        "stats" => match op_stats(state, &doc) {
            Ok(body) => (body, true, false),
            Err(resp) => (resp, false, false),
        },
        "recover" => match op_recover(state, &doc) {
            Ok(body) => (body, true, false),
            Err(resp) => (resp, false, false),
        },
        "continue" => match op_continue(state, &doc) {
            Ok(body) => (body, true, false),
            Err(resp) => (resp, false, false),
        },
        "shutdown" => (
            format!("{{\"v\":{PROTOCOL_VERSION},\"status\":\"ok\",\"code\":200}}"),
            true,
            true,
        ),
        other => (bad_request(&format!("unknown op {other:?}")), false, false),
    }
}

fn require_str<'a>(doc: &'a Value, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing or non-string \"{key}\""))
}

fn require_f64(doc: &Value, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Value::as_number)
        .ok_or_else(|| format!("missing or non-numeric \"{key}\""))
}

/// Parses `"ranges": [[lo, hi], ...]`.
fn parse_ranges(doc: &Value) -> Result<Vec<(f64, f64)>, String> {
    let arr = doc
        .get("ranges")
        .and_then(Value::as_array)
        .ok_or("missing \"ranges\" array of [lo, hi] pairs")?;
    arr.iter()
        .map(|pair| {
            let pair = pair.as_array().ok_or("each range must be [lo, hi]")?;
            if pair.len() != 2 {
                return Err("each range must be [lo, hi]".to_string());
            }
            let lo = pair[0].as_number().ok_or("range bounds must be numbers")?;
            let hi = pair[1].as_number().ok_or("range bounds must be numbers")?;
            Ok((lo, hi))
        })
        .collect()
}

/// Builds the runnable spec for one wire query object.
fn build_spec(doc: &Value) -> Result<QuerySpec, String> {
    let program = require_str(doc, "program")?;
    let ranges = parse_ranges(doc)?;
    let wire = catalog::resolve(program, &ranges)?;
    let identity = wire.program.name().to_string();
    let mut spec = QuerySpec::builder()
        .program(wire.program)
        .identity(identity, 1)
        .range_estimation(RangeEstimation::Tight(wire.ranges));
    if let Some(eps) = doc.get("epsilon").and_then(Value::as_number) {
        spec = spec.epsilon(Epsilon::new(eps).map_err(|e| format!("invalid epsilon: {e}"))?);
    }
    if let Some(b) = doc.get("block_size").and_then(Value::as_number) {
        if b < 1.0 || b.fract() != 0.0 {
            return Err("block_size must be a positive integer".to_string());
        }
        spec = spec.fixed_block_size(b as usize);
    }
    spec.build().map_err(|e| e.to_string())
}

fn op_query(state: &Arc<ServeState>, doc: &Value) -> Result<String, String> {
    let dataset = require_str(doc, "dataset").map_err(|m| bad_request(&m))?;
    let principal = doc.get("principal").and_then(Value::as_str);
    let deadline = match doc.get("deadline_ms").and_then(Value::as_number) {
        Some(ms) if ms >= 0.0 => Some(Duration::from_millis(ms as u64)),
        Some(_) => return Err(bad_request("deadline_ms must be non-negative")),
        None => None,
    };
    let spec = build_spec(doc).map_err(|m| bad_request(&m))?;
    let service = &state.service;
    let result = match (principal, deadline) {
        (Some(p), Some(d)) => service.run_as_with_deadline(dataset, p, spec, d),
        (Some(p), None) => service.run_as(dataset, p, spec),
        (None, Some(d)) => service.run_with_deadline(dataset, spec, d),
        (None, None) => service.run(dataset, spec),
    };
    match result {
        Ok(answer) => Ok(format!(
            "{{\"v\":{PROTOCOL_VERSION},\"status\":\"ok\",\"code\":200,\"answer\":{}}}",
            answer_json(&answer)
        )),
        Err(e) => Err(error_response(&e)),
    }
}

fn op_batch(state: &Arc<ServeState>, doc: &Value) -> Result<String, String> {
    let dataset = require_str(doc, "dataset").map_err(|m| bad_request(&m))?;
    let principal = doc.get("principal").and_then(Value::as_str);
    let total = require_f64(doc, "total_epsilon").map_err(|m| bad_request(&m))?;
    let total =
        Epsilon::new(total).map_err(|e| bad_request(&format!("invalid total_epsilon: {e}")))?;
    let members = doc
        .get("queries")
        .and_then(Value::as_array)
        .ok_or_else(|| bad_request("missing \"queries\" array"))?;
    if members.is_empty() {
        return Err(bad_request("empty \"queries\" array"));
    }
    let mut specs = Vec::with_capacity(members.len());
    for m in members {
        specs.push(build_spec(m).map_err(|m| bad_request(&m))?);
    }
    let result = match principal {
        Some(p) => state.service.run_batch_as(dataset, p, specs, total),
        None => state.service.run_batch(dataset, specs, total),
    };
    match result {
        Ok(batch) => {
            let answers: Vec<String> = batch.answers.iter().map(answer_json).collect();
            let allocations: Vec<String> = batch.allocations.iter().map(|a| json_f64(*a)).collect();
            Ok(format!(
                "{{\"v\":{PROTOCOL_VERSION},\"status\":\"ok\",\"code\":200,\
                 \"answers\":[{}],\"allocations\":[{}]}}",
                answers.join(","),
                allocations.join(",")
            ))
        }
        Err(e) => Err(error_response(&e)),
    }
}

/// Parses `"rows": [[f64, ...], ...]` — the append delta.
fn parse_rows(doc: &Value) -> Result<Vec<Vec<f64>>, String> {
    let arr = doc
        .get("rows")
        .and_then(Value::as_array)
        .ok_or("missing \"rows\" array of rows")?;
    arr.iter()
        .map(|row| {
            let row = row
                .as_array()
                .ok_or("each row must be an array of numbers")?;
            row.iter()
                .map(|cell| {
                    cell.as_number()
                        .ok_or_else(|| "each row must be an array of numbers".to_string())
                })
                .collect()
        })
        .collect()
}

fn op_append(state: &Arc<ServeState>, doc: &Value) -> Result<String, String> {
    let dataset = require_str(doc, "dataset").map_err(|m| bad_request(&m))?;
    let principal = doc.get("principal").and_then(Value::as_str);
    let rows = parse_rows(doc).map_err(|m| bad_request(&m))?;
    let runtime = state.service.runtime();
    // Attribution must name a principal the dataset actually knows —
    // otherwise the ingest books could cite uploaders that never
    // existed.
    if let Some(p) = principal {
        let known = runtime
            .principal_states(dataset)
            .map_err(|e| error_response(&e))?
            .iter()
            .any(|s| s.name == p);
        if !known {
            return Err(error_response(&GuptError::UnknownPrincipal(p.to_string())));
        }
    }
    let receipt = runtime.append_rows(dataset, &rows).map_err(|e| match e {
        // A malformed delta (width mismatch, non-finite cells) is the
        // client's mistake, not a server failure.
        GuptError::InvalidDataset(_) => bad_request(&e.to_string()),
        other => error_response(&other),
    })?;
    if let Some(p) = principal {
        let mut attr = lock(&state.append_principals);
        let entry = attr.entry(p.to_string()).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += receipt.rows_appended as u64;
    }
    // The epoch is a 64-bit hash; render it as a decimal string so an
    // f64-based JSON parser cannot silently round it.
    Ok(format!(
        "{{\"v\":{PROTOCOL_VERSION},\"status\":\"ok\",\"code\":200,\"append\":{{\
         \"rows_appended\":{},\"total_rows\":{},\"epoch\":\"{}\",\"bytes_materialized\":{}}}}}",
        receipt.rows_appended, receipt.total_rows, receipt.epoch, receipt.bytes_materialized
    ))
}

fn op_sql(state: &Arc<ServeState>, doc: &Value) -> Result<String, String> {
    let query = require_str(doc, "query").map_err(|m| bad_request(&m))?;
    let principal = doc.get("principal").and_then(Value::as_str);
    let mut column_ranges = Vec::new();
    // `ranges` is optional on the wire: COUNT-only statements read no
    // column values, so forcing the array would reject valid queries.
    if doc.get("ranges").is_some() {
        for (lo, hi) in parse_ranges(doc).map_err(|m| bad_request(&m))? {
            column_ranges.push(
                OutputRange::new(lo, hi)
                    .map_err(|e| bad_request(&format!("invalid range: {e}")))?,
            );
        }
    }
    // SqlOptions::default() arms the frequency gate at the floor.
    let mut options = SqlOptions {
        column_ranges,
        ..SqlOptions::default()
    };
    if let Some(eps) = doc.get("epsilon").and_then(Value::as_number) {
        options.epsilon = eps;
    }
    if let Some(mc) = doc.get("min_count").and_then(Value::as_number) {
        // The frequency gate is what keeps the released GROUP BY key
        // set private from *untrusted* analysts — exactly the clients
        // this plane serves. A wire-supplied min_count below the floor
        // (0 in particular) would switch the gate off remotely, so
        // relaxation is operator-side configuration only: the server
        // accepts tightening, never loosening.
        if mc.is_nan() || mc < DEFAULT_MIN_COUNT {
            return Err(bad_request(&format!(
                "min_count below the server floor of {DEFAULT_MIN_COUNT}: \
                 the GROUP BY frequency gate cannot be relaxed over the wire"
            )));
        }
        options.min_count = mc;
    }
    if let Some(b) = doc.get("block_size").and_then(Value::as_number) {
        if b < 1.0 || b.fract() != 0.0 {
            return Err(bad_request("block_size must be a positive integer"));
        }
        options.block_size = Some(b as usize);
    }
    let runtime = state.service.runtime();
    match runtime.sql_as(principal, query, &options) {
        Ok(answer) => Ok(format!(
            "{{\"v\":{PROTOCOL_VERSION},\"status\":\"ok\",\"code\":200,\"sql\":{}}}",
            sql_answer_json(&answer)
        )),
        Err(e) => Err(sql_error_response(&e)),
    }
}

fn sql_answer_json(a: &SqlAnswer) -> String {
    let columns: Vec<String> = a.columns.iter().map(|c| json_string(c)).collect();
    let rows: Vec<String> = a
        .rows
        .iter()
        .map(|row| {
            let group: Vec<String> = row.group.iter().map(|g| json_f64(*g)).collect();
            let values: Vec<String> = row.values.iter().map(|v| json_f64(*v)).collect();
            let gate = match row.noisy_count {
                Some(c) => json_f64(c),
                None => "null".to_string(),
            };
            format!(
                "{{\"group\":[{}],\"values\":[{}],\"noisy_count\":{gate}}}",
                group.join(","),
                values.join(",")
            )
        })
        .collect();
    format!(
        "{{\"columns\":[{}],\"rows\":[{}],\"epsilon_spent\":{},\"suppressed_groups\":{}}}",
        columns.join(","),
        rows.join(","),
        json_f64(a.epsilon_spent),
        a.suppressed_groups
    )
}

/// Parses the v3 `"window"` object: `size` (required, rows per
/// window), `slide` (optional, defaults to `size` — tumbling) and
/// `key` (optional, `"rows"` or `"arrivals"`, defaults to rows).
fn parse_window(doc: &Value) -> Result<WindowSpec, String> {
    let win = doc
        .get("window")
        .ok_or("missing \"window\" object ({size, slide?, key?})")?;
    let size = require_f64(win, "size")?;
    if size < 1.0 || size.fract() != 0.0 {
        return Err("window.size must be a positive integer".to_string());
    }
    let slide = match win.get("slide").and_then(Value::as_number) {
        Some(s) if s >= 1.0 && s.fract() == 0.0 => s as usize,
        Some(_) => return Err("window.slide must be a positive integer".to_string()),
        None => size as usize,
    };
    let spec = WindowSpec::sliding(size as usize, slide).map_err(|e| e.to_string())?;
    match win.get("key").and_then(Value::as_str) {
        None => Ok(spec),
        Some("rows") => Ok(spec.keyed_by(WindowKey::RowCount)),
        Some("arrivals") => Ok(spec.keyed_by(WindowKey::Arrival)),
        Some(other) => Err(format!(
            "unknown window key {other:?} (expected \"rows\" or \"arrivals\")"
        )),
    }
}

fn window_key_name(key: WindowKey) -> &'static str {
    match key {
        WindowKey::RowCount => "rows",
        WindowKey::Arrival => "arrivals",
    }
}

fn op_subscribe(state: &Arc<ServeState>, doc: &Value) -> Result<String, String> {
    let dataset = require_str(doc, "dataset").map_err(|m| bad_request(&m))?;
    let principal = doc.get("principal").and_then(Value::as_str);
    let window = parse_window(doc).map_err(|m| bad_request(&m))?;
    let spec = build_spec(doc).map_err(|m| bad_request(&m))?;
    let runtime = state.service.runtime();
    let handle = match principal {
        Some(p) => runtime.subscribe_as(dataset, p, window, spec),
        None => runtime.subscribe(dataset, window, spec),
    }
    .map_err(|e| error_response(&e))?;
    let id = handle.id();
    let win = handle.window();
    let body = format!(
        "{{\"v\":{PROTOCOL_VERSION},\"status\":\"ok\",\"code\":200,\"subscription\":{{\
         \"id\":{id},\"dataset\":{},\"window\":{{\"size\":{},\"slide\":{},\"key\":\"{}\"}}}}}}",
        json_string(handle.dataset()),
        win.size(),
        win.slide(),
        window_key_name(win.key())
    );
    lock(&state.subscriptions).insert(id, handle);
    Ok(body)
}

fn op_poll(state: &Arc<ServeState>, doc: &Value) -> Result<String, String> {
    let id = require_f64(doc, "subscription").map_err(|m| bad_request(&m))?;
    if id < 0.0 || id.fract() != 0.0 {
        return Err(bad_request("subscription must be a non-negative integer"));
    }
    let id = id as u64;
    let handle = lock(&state.subscriptions)
        .get(&id)
        .cloned()
        .ok_or_else(|| bad_request(&format!("unknown subscription {id}")))?;
    // The runtime serialises polls of one subscription behind its own
    // mutex, so concurrent wire polls cannot double-charge a window.
    match state.service.runtime().poll_window(&handle) {
        Ok(None) => Ok(format!(
            "{{\"v\":{PROTOCOL_VERSION},\"status\":\"ok\",\"code\":200,\"window\":null}}"
        )),
        Ok(Some(w)) => Ok(format!(
            "{{\"v\":{PROTOCOL_VERSION},\"status\":\"ok\",\"code\":200,\"window\":{{\
             \"index\":{},\"start_row\":{},\"end_row\":{},\"replayed\":{},\
             \"rows_aged\":{},\"answer\":{}}}}}",
            w.window,
            w.start_row,
            w.end_row,
            w.replayed,
            w.rows_aged,
            answer_json(&w.answer)
        )),
        Err(e) => Err(error_response(&e)),
    }
}

fn op_stats(state: &Arc<ServeState>, doc: &Value) -> Result<String, String> {
    let runtime = state.service.runtime();
    let service = state.service.stats();
    let cache = state.service.cache_stats();
    let serve = serve_telemetry(state);
    let mut out = format!(
        "{{\"v\":{PROTOCOL_VERSION},\"status\":\"ok\",\"code\":200,\"serve\":{}",
        serve.to_json()
    );
    out.push_str(&format!(
        ",\"service\":{{\"in_flight\":{},\"queued\":{},\"admitted\":{},\
         \"rejected_overloaded\":{},\"rejected_deadline\":{}}}",
        service.in_flight,
        service.queued,
        service.admitted,
        service.rejected_overloaded,
        service.rejected_deadline
    ));
    out.push_str(&format!(
        ",\"cache\":{{\"hits\":{},\"misses\":{},\"epsilon_saved\":{}}}",
        cache.hits,
        cache.misses,
        json_f64(cache.epsilon_saved)
    ));
    // Continuous-query counters (v3) — the schema-v7 `stream` object.
    out.push_str(&format!(",\"stream\":{}", runtime.stream_stats().to_json()));
    // Per-principal ingest attribution across datasets (v2).
    out.push_str(",\"append_principals\":{");
    {
        let attr = lock(&state.append_principals);
        for (i, (name, (appends, rows))) in attr.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"appends\":{appends},\"rows\":{rows}}}",
                json_string(name)
            ));
        }
    }
    out.push('}');
    if let Some(dataset) = doc.get("dataset").and_then(Value::as_str) {
        let ingest = runtime
            .ingest_stats(dataset)
            .map_err(|e| error_response(&e))?;
        out.push_str(&format!(
            ",\"ingest\":{{\"appends\":{},\"rows_appended\":{},\"bytes_materialized\":{}}}",
            ingest.appends, ingest.rows_appended, ingest.bytes_materialized
        ));
        let ledger = runtime
            .ledger_state(dataset)
            .map_err(|e| error_response(&e))?;
        out.push_str(&format!(
            ",\"ledger\":{{\"total\":{},\"spent\":{},\"remaining\":{},\
             \"queries\":{},\"durable\":{}}}",
            json_f64(ledger.total),
            json_f64(ledger.spent),
            json_f64(ledger.remaining),
            ledger.queries,
            ledger.durable
        ));
        let principals = runtime
            .principal_states(dataset)
            .map_err(|e| error_response(&e))?;
        out.push_str(",\"principals\":{");
        for (i, p) in principals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_string(&p.name), principal_json(p)));
        }
        out.push('}');
    }
    out.push('}');
    Ok(out)
}

fn op_recover(state: &Arc<ServeState>, doc: &Value) -> Result<String, String> {
    let dataset = require_str(doc, "dataset").map_err(|m| bad_request(&m))?;
    let runtime = state.service.runtime();
    let recovery = runtime
        .recovery_info(dataset)
        .map_err(|e| error_response(&e))?;
    match recovery {
        None => Ok(format!(
            "{{\"v\":{PROTOCOL_VERSION},\"status\":\"ok\",\"code\":200,\"recovery\":null}}"
        )),
        Some(rec) => {
            let mut principals = String::new();
            for (i, (name, books)) in rec.principals.iter().enumerate() {
                if i > 0 {
                    principals.push(',');
                }
                principals.push_str(&format!(
                    "{}:{{\"spent\":{},\"queries\":{}}}",
                    json_string(name),
                    json_f64(books.spent),
                    books.queries
                ));
            }
            Ok(format!(
                "{{\"v\":{PROTOCOL_VERSION},\"status\":\"ok\",\"code\":200,\"recovery\":{{\
                 \"spent\":{},\"queries\":{},\"wal_records\":{},\"truncated_bytes\":{},\
                 \"had_snapshot\":{},\"cache_records\":{},\"principals\":{{{principals}}}}}}}",
                json_f64(rec.spent),
                rec.queries,
                rec.wal_records,
                rec.truncated_bytes,
                rec.had_snapshot,
                rec.cache_records.len()
            ))
        }
    }
}

fn op_continue(state: &Arc<ServeState>, doc: &Value) -> Result<String, String> {
    let dataset = require_str(doc, "dataset").map_err(|m| bad_request(&m))?;
    let principal = require_str(doc, "principal").map_err(|m| bad_request(&m))?;
    let grant = doc.get("grant").and_then(Value::as_number);
    let runtime = state.service.runtime();
    let resumed = runtime
        .continue_principal(dataset, principal, grant)
        .map_err(|e| error_response(&e))?;
    Ok(format!(
        "{{\"v\":{PROTOCOL_VERSION},\"status\":\"ok\",\"code\":200,\"principal\":{}}}",
        principal_json(&resumed)
    ))
}

fn principal_json(p: &gupt_core::principal::PrincipalState) -> String {
    format!(
        "{{\"quota\":{},\"spent\":{},\"remaining\":{},\"queries\":{},\"paused\":{}}}",
        json_f64(p.quota),
        json_f64(p.spent),
        json_f64(p.remaining()),
        p.queries,
        p.paused
    )
}

fn answer_json(a: &PrivateAnswer) -> String {
    let values: Vec<String> = a.values.iter().map(|v| json_f64(*v)).collect();
    format!(
        "{{\"values\":[{}],\"epsilon_spent\":{},\"block_size\":{},\
         \"num_blocks\":{},\"gamma\":{}}}",
        values.join(","),
        json_f64(a.epsilon_spent),
        a.block_size,
        a.num_blocks,
        a.gamma
    )
}

/// Builds the schema-v4 `serve` object from the live counters.
fn serve_telemetry(state: &Arc<ServeState>) -> ServeTelemetry {
    let runtime = state.service.runtime();
    let mut spent: BTreeMap<String, f64> = BTreeMap::new();
    for dataset in runtime.dataset_names() {
        if let Ok(states) = runtime.principal_states(dataset) {
            for p in states {
                *spent.entry(p.name).or_insert(0.0) += p.spent;
            }
        }
    }
    let [p50_ms, p99_ms] = state
        .latencies_us
        .percentiles([50.0, 99.0])
        .map(|us| us as f64 / 1e3);
    ServeTelemetry {
        accepted: state.accepted.load(Ordering::Relaxed),
        refused: state.refused.load(Ordering::Relaxed),
        in_flight: state.in_flight.load(Ordering::Relaxed),
        principals: spent.into_iter().collect(),
        p50_ms,
        p99_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use gupt_core::{GuptRuntimeBuilder, ServiceConfig};

    fn test_server(budget: f64, principals: &[(&str, f64)]) -> ServerHandle {
        use gupt_core::storage::Durability;
        use gupt_core::{Dataset, ExhaustedPolicy};
        let rows: Vec<Vec<f64>> = (0..600).map(|i| vec![(i % 50) as f64]).collect();
        let mut registration = Dataset::new(rows)
            .unwrap()
            .builder()
            .budget(Epsilon::new(budget).unwrap())
            .durability(Durability::Ephemeral)
            .exhausted_policy(ExhaustedPolicy::PauseApproval);
        for (name, quota) in principals {
            registration = registration.principal(*name, *quota);
        }
        let runtime = GuptRuntimeBuilder::new()
            .dataset("t", registration)
            .unwrap()
            .seed(42)
            .build();
        let service = QueryService::new(runtime, ServiceConfig::new(4, 16));
        GuptServer::bind(service, "127.0.0.1:0", ServeConfig::new(2)).unwrap()
    }

    #[test]
    fn query_roundtrip_over_tcp() {
        let server = test_server(10.0, &[]);
        let mut client = ServeClient::connect(server.addr()).unwrap();
        let resp = client
            .request(
                "{\"v\":1,\"op\":\"query\",\"dataset\":\"t\",\"program\":\"mean:0\",\
                 \"epsilon\":1.0,\"ranges\":[[0,49]]}",
            )
            .unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
        let answer = resp.get("answer").unwrap();
        let v = answer.get("values").unwrap().as_array().unwrap()[0]
            .as_number()
            .unwrap();
        assert!((v - 24.5).abs() < 15.0, "noisy mean way off: {v}");
        assert_eq!(answer.get("epsilon_spent").unwrap().as_number(), Some(1.0));
        let stats = server.stats();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.refused, 0);
        server.shutdown();
    }

    #[test]
    fn principal_quota_enforced_on_the_wire() {
        let server = test_server(10.0, &[("alice", 1.0)]);
        let mut client = ServeClient::connect(server.addr()).unwrap();
        // Distinct programs: a repeated query would replay from the
        // answer cache at zero ε and never touch the quota.
        let q = |program: &str| {
            format!(
                "{{\"v\":1,\"op\":\"query\",\"dataset\":\"t\",\"principal\":\"alice\",\
                 \"program\":\"{program}\",\"epsilon\":0.75,\"ranges\":[[0,49]]}}"
            )
        };
        let ok = client.request(&q("mean:0")).unwrap();
        assert_eq!(ok.get("status").unwrap().as_str(), Some("ok"));
        // Second query overruns the quota → 429 with pause (policy is
        // pause_approval) and the ledger is not debited further.
        let refused = client.request(&q("variance:0")).unwrap();
        assert_eq!(
            refused.get("status").unwrap().as_str(),
            Some("quota_exhausted")
        );
        assert_eq!(refused.get("code").unwrap().as_number(), Some(429.0));
        assert_eq!(
            refused.get("error").unwrap().get("paused").unwrap(),
            &Value::Bool(true)
        );
        // Operator continue with a grant lets alice through again.
        let resumed = client
            .request(
                "{\"v\":1,\"op\":\"continue\",\"dataset\":\"t\",\
                 \"principal\":\"alice\",\"grant\":1.0}",
            )
            .unwrap();
        assert_eq!(resumed.get("status").unwrap().as_str(), Some("ok"));
        let ok = client.request(&q("variance:0")).unwrap();
        assert_eq!(ok.get("status").unwrap().as_str(), Some("ok"));
        let stats = server.stats();
        assert_eq!(stats.accepted, 3);
        assert_eq!(stats.refused, 1);
        server.shutdown();
    }

    #[test]
    fn stats_and_batch_ops() {
        let server = test_server(10.0, &[("alice", 5.0)]);
        let mut client = ServeClient::connect(server.addr()).unwrap();
        let batch = client
            .request(
                "{\"v\":1,\"op\":\"batch\",\"dataset\":\"t\",\"principal\":\"alice\",\
                 \"total_epsilon\":1.0,\"queries\":[\
                 {\"program\":\"mean:0\",\"ranges\":[[0,49]]},\
                 {\"program\":\"count\",\"ranges\":[[0,600]]}]}",
            )
            .unwrap();
        assert_eq!(batch.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(batch.get("answers").unwrap().as_array().unwrap().len(), 2);
        let total: f64 = batch
            .get("allocations")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|a| a.as_number().unwrap())
            .sum();
        assert!((total - 1.0).abs() < 1e-9);

        let stats = client
            .request("{\"v\":1,\"op\":\"stats\",\"dataset\":\"t\"}")
            .unwrap();
        assert_eq!(stats.get("status").unwrap().as_str(), Some("ok"));
        let serve = stats.get("serve").unwrap();
        assert_eq!(serve.get("accepted").unwrap().as_number(), Some(1.0));
        let alice = serve.get("principals").unwrap().get("alice").unwrap();
        assert!((alice.as_number().unwrap() - 1.0).abs() < 1e-9);
        let ledger = stats.get("ledger").unwrap();
        assert!((ledger.get("spent").unwrap().as_number().unwrap() - 1.0).abs() < 1e-9);
        let p = stats.get("principals").unwrap().get("alice").unwrap();
        assert_eq!(p.get("paused").unwrap(), &Value::Bool(false));
        server.shutdown();
    }

    #[test]
    fn sql_roundtrip_over_tcp() {
        use crate::client::SqlPayload;
        let server = test_server(50.0, &[("alice", 20.0)]);
        let mut client = ServeClient::connect(server.addr()).unwrap();

        // A bare COUNT(*) needs no column ranges.
        let resp = client
            .request(&SqlPayload::new("SELECT COUNT(*) FROM t", &[]).to_json())
            .unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
        let sql = resp.get("sql").unwrap();
        let rows = sql.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].get("group").unwrap().as_array().unwrap().is_empty());
        let count = rows[0].get("values").unwrap().as_array().unwrap()[0]
            .as_number()
            .unwrap();
        // n=600, ~9 blocks at ε=1 → Laplace scale ≈ 67; stay generous.
        assert!(
            (count - 600.0).abs() < 400.0,
            "noisy count way off: {count}"
        );
        assert_eq!(sql.get("epsilon_spent").unwrap().as_number(), Some(1.0));
        assert_eq!(sql.get("suppressed_groups").unwrap().as_number(), Some(0.0));

        // A value aggregate with a principal and an explicit ε.
        let resp = client
            .request(
                &SqlPayload::new("SELECT AVG(c0) FROM t WITH EPSILON 2", &[(0.0, 49.0)])
                    .principal("alice")
                    .to_json(),
            )
            .unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
        let sql = resp.get("sql").unwrap();
        let avg = sql.get("rows").unwrap().as_array().unwrap()[0]
            .get("values")
            .unwrap()
            .as_array()
            .unwrap()[0]
            .as_number()
            .unwrap();
        assert!((avg - 24.5).abs() < 15.0, "noisy mean way off: {avg}");
        assert_eq!(sql.get("epsilon_spent").unwrap().as_number(), Some(2.0));
        let cols = sql.get("columns").unwrap().as_array().unwrap();
        assert_eq!(cols[0].as_str(), Some("AVG(c0)"));
        server.shutdown();
    }

    #[test]
    fn sql_requires_protocol_v4() {
        let server = test_server(10.0, &[]);
        let mut client = ServeClient::connect(server.addr()).unwrap();
        let resp = client
            .request("{\"v\":3,\"op\":\"sql\",\"query\":\"SELECT COUNT(*) FROM t\"}")
            .unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("bad_request"));
        let msg = resp
            .get("error")
            .unwrap()
            .get("message")
            .unwrap()
            .as_str()
            .unwrap();
        assert!(msg.contains("requires protocol v4"), "{msg}");
        server.shutdown();
    }

    #[test]
    fn sql_parse_error_carries_position_on_the_wire() {
        let server = test_server(10.0, &[]);
        let mut client = ServeClient::connect(server.addr()).unwrap();
        let resp = client
            .request("{\"v\":4,\"op\":\"sql\",\"query\":\"SELECT COUNT(*) FRUM t\"}")
            .unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("parse_error"));
        assert_eq!(resp.get("code").unwrap().as_number(), Some(422.0));
        let detail = resp.get("error").unwrap().get("detail").unwrap();
        assert_eq!(detail.get("line").unwrap().as_number(), Some(1.0));
        assert_eq!(detail.get("column").unwrap().as_number(), Some(17.0));
        server.shutdown();
    }

    #[test]
    fn sql_plan_error_maps_to_424_on_the_wire() {
        let server = test_server(10.0, &[]);
        let mut client = ServeClient::connect(server.addr()).unwrap();
        // c9 is out of range for the 1-column dataset → plan error.
        let resp = client
            .request(
                "{\"v\":4,\"op\":\"sql\",\"query\":\"SELECT AVG(c9) FROM t\",\
                 \"ranges\":[[0,49]]}",
            )
            .unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("plan_error"));
        assert_eq!(resp.get("code").unwrap().as_number(), Some(424.0));
        server.shutdown();
    }

    #[test]
    fn sql_min_count_below_the_server_floor_is_rejected() {
        let server = test_server(10.0, &[]);
        let mut client = ServeClient::connect(server.addr()).unwrap();
        // A remote client must not be able to relax (or disable) the
        // GROUP BY frequency gate: anything under the floor is refused
        // before the statement ever reaches the planner.
        for mc in ["0", "4.9", "-1"] {
            let resp = client
                .request(&format!(
                    "{{\"v\":4,\"op\":\"sql\",\
                     \"query\":\"SELECT COUNT(*) FROM t GROUP BY c0\",\
                     \"min_count\":{mc}}}"
                ))
                .unwrap();
            assert_eq!(
                resp.get("status").unwrap().as_str(),
                Some("bad_request"),
                "min_count {mc} must be rejected"
            );
            let msg = resp
                .get("error")
                .unwrap()
                .get("message")
                .unwrap()
                .as_str()
                .unwrap();
            assert!(msg.contains("server floor"), "{msg}");
        }
        // Tightening the gate (at or above the floor) is fine.
        let resp = client
            .request(
                "{\"v\":4,\"op\":\"sql\",\"query\":\"SELECT COUNT(*) FROM t\",\
                 \"min_count\":5}",
            )
            .unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
        server.shutdown();
    }

    #[test]
    fn sql_runtime_errors_keep_the_standard_taxonomy() {
        let server = test_server(10.0, &[]);
        let mut client = ServeClient::connect(server.addr()).unwrap();
        let resp = client
            .request("{\"v\":4,\"op\":\"sql\",\"query\":\"SELECT COUNT(*) FROM nope\"}")
            .unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("not_found"));
        assert_eq!(resp.get("code").unwrap().as_number(), Some(404.0));
        server.shutdown();
    }

    #[test]
    fn protocol_failures_map_to_bad_request() {
        let server = test_server(10.0, &[]);
        let mut client = ServeClient::connect(server.addr()).unwrap();
        for (payload, needle) in [
            ("not json", "invalid JSON"),
            ("{\"v\":9,\"op\":\"query\"}", "unsupported protocol version"),
            ("{\"v\":1}", "missing \"op\""),
            ("{\"v\":1,\"op\":\"nope\"}", "unknown op"),
            (
                "{\"v\":1,\"op\":\"query\",\"dataset\":\"t\",\"program\":\"nope:0\",\
                 \"ranges\":[[0,1]]}",
                "unknown program",
            ),
        ] {
            let resp = client.request(payload).unwrap();
            assert_eq!(
                resp.get("status").unwrap().as_str(),
                Some("bad_request"),
                "{payload}"
            );
            let msg = resp
                .get("error")
                .unwrap()
                .get("message")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        }
        // Unknown dataset is 404, not bad_request.
        let resp = client
            .request(
                "{\"v\":1,\"op\":\"query\",\"dataset\":\"ghost\",\"program\":\"mean:0\",\
                 \"epsilon\":0.5,\"ranges\":[[0,1]]}",
            )
            .unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("not_found"));
        assert_eq!(resp.get("code").unwrap().as_number(), Some(404.0));
        server.shutdown();
    }

    #[test]
    fn append_over_the_wire_grows_the_dataset() {
        let server = test_server(10.0, &[("alice", 5.0)]);
        let mut client = ServeClient::connect(server.addr()).unwrap();
        let resp = client
            .request(
                "{\"v\":2,\"op\":\"append\",\"dataset\":\"t\",\"principal\":\"alice\",\
                 \"rows\":[[1.0],[2.0],[3.0]]}",
            )
            .unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
        let receipt = resp.get("append").unwrap();
        assert_eq!(receipt.get("rows_appended").unwrap().as_number(), Some(3.0));
        assert_eq!(receipt.get("total_rows").unwrap().as_number(), Some(603.0));
        assert_eq!(
            receipt.get("bytes_materialized").unwrap().as_number(),
            Some(24.0)
        );
        // The epoch travels as a decimal string (64-bit hash; a JSON
        // number would round through f64).
        let epoch = receipt.get("epoch").unwrap().as_str().unwrap();
        assert!(epoch.parse::<u64>().is_ok(), "epoch not a u64: {epoch:?}");

        // A second identical append chains a *different* epoch.
        let resp2 = client
            .request(
                "{\"v\":2,\"op\":\"append\",\"dataset\":\"t\",\
                 \"rows\":[[1.0],[2.0],[3.0]]}",
            )
            .unwrap();
        let epoch2 = resp2
            .get("append")
            .unwrap()
            .get("epoch")
            .unwrap()
            .as_str()
            .unwrap();
        assert_ne!(epoch, epoch2);

        // Stats reflect both the runtime ingest counters and the
        // per-principal attribution (only alice's named append).
        let stats = client
            .request("{\"v\":2,\"op\":\"stats\",\"dataset\":\"t\"}")
            .unwrap();
        let ingest = stats.get("ingest").unwrap();
        assert_eq!(ingest.get("appends").unwrap().as_number(), Some(2.0));
        assert_eq!(ingest.get("rows_appended").unwrap().as_number(), Some(6.0));
        assert_eq!(
            ingest.get("bytes_materialized").unwrap().as_number(),
            Some(48.0)
        );
        let alice = stats
            .get("append_principals")
            .unwrap()
            .get("alice")
            .unwrap();
        assert_eq!(alice.get("appends").unwrap().as_number(), Some(1.0));
        assert_eq!(alice.get("rows").unwrap().as_number(), Some(3.0));
        server.shutdown();
    }

    #[test]
    fn append_rejections_on_the_wire() {
        let server = test_server(10.0, &[]);
        let mut client = ServeClient::connect(server.addr()).unwrap();
        // v1 clients cannot append — version hint, not "unknown op".
        let resp = client
            .request("{\"v\":1,\"op\":\"append\",\"dataset\":\"t\",\"rows\":[[1.0]]}")
            .unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("bad_request"));
        let msg = resp
            .get("error")
            .unwrap()
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert!(msg.contains("requires protocol v2"), "{msg:?}");
        // Width mismatch is the client's fault: 400, not 500.
        let resp = client
            .request("{\"v\":2,\"op\":\"append\",\"dataset\":\"t\",\"rows\":[[1.0,2.0]]}")
            .unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("bad_request"));
        // Attribution to a principal the dataset never registered: 403.
        let resp = client
            .request(
                "{\"v\":2,\"op\":\"append\",\"dataset\":\"t\",\"principal\":\"mallory\",\
                 \"rows\":[[1.0]]}",
            )
            .unwrap();
        assert_eq!(
            resp.get("status").unwrap().as_str(),
            Some("unknown_principal")
        );
        assert_eq!(resp.get("code").unwrap().as_number(), Some(403.0));
        // Unknown dataset: 404.
        let resp = client
            .request("{\"v\":2,\"op\":\"append\",\"dataset\":\"ghost\",\"rows\":[[1.0]]}")
            .unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("not_found"));
        // Failed appends leave the dataset untouched.
        let stats = client
            .request("{\"v\":2,\"op\":\"stats\",\"dataset\":\"t\"}")
            .unwrap();
        let ingest = stats.get("ingest").unwrap();
        assert_eq!(ingest.get("rows_appended").unwrap().as_number(), Some(0.0));
        server.shutdown();
    }

    #[test]
    fn v1_queries_see_data_appended_by_v2_clients() {
        // A v1 client keeps working against a v2 server; after a v2
        // append the same v1 query is re-planned over the grown table
        // (more blocks) instead of replaying the stale cached answer.
        let server = test_server(10.0, &[]);
        let mut client = ServeClient::connect(server.addr()).unwrap();
        let query = |client: &mut ServeClient| {
            let resp = client
                .request(
                    "{\"v\":1,\"op\":\"query\",\"dataset\":\"t\",\"program\":\"mean:0\",\
                     \"epsilon\":1.0,\"ranges\":[[0,49]]}",
                )
                .unwrap();
            assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
            resp.get("answer")
                .unwrap()
                .get("num_blocks")
                .unwrap()
                .as_number()
                .unwrap()
        };
        let before = query(&mut client);
        let rows: Vec<String> = (0..400).map(|_| "[7.0]".to_string()).collect();
        let resp = client
            .request(&format!(
                "{{\"v\":2,\"op\":\"append\",\"dataset\":\"t\",\"rows\":[{}]}}",
                rows.join(",")
            ))
            .unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
        // 600 → 1000 rows: the β = n^0.6 block plan is deterministic,
        // so a recomputed answer must carry strictly more blocks.
        let after = query(&mut client);
        assert!(
            after > before,
            "block plan did not grow: {before} -> {after}"
        );
        server.shutdown();
    }

    #[test]
    fn subscribe_and_poll_drain_closed_windows_over_the_wire() {
        let server = test_server(10.0, &[("alice", 5.0)]);
        let mut client = ServeClient::connect(server.addr()).unwrap();
        let sub = client
            .request(
                "{\"v\":3,\"op\":\"subscribe\",\"dataset\":\"t\",\"principal\":\"alice\",\
                 \"program\":\"mean:0\",\"epsilon\":0.5,\"ranges\":[[0,49]],\
                 \"window\":{\"size\":200}}",
            )
            .unwrap();
        assert_eq!(sub.get("status").unwrap().as_str(), Some("ok"));
        let handle = sub.get("subscription").unwrap();
        let id = handle.get("id").unwrap().as_number().unwrap();
        let win = handle.get("window").unwrap();
        assert_eq!(win.get("size").unwrap().as_number(), Some(200.0));
        assert_eq!(win.get("slide").unwrap().as_number(), Some(200.0));
        assert_eq!(win.get("key").unwrap().as_str(), Some("rows"));

        // 600 rows / tumbling(200) → exactly three closed windows, in
        // order, each debiting its own ε; the fourth poll finds the
        // next window still open.
        let poll = format!("{{\"v\":3,\"op\":\"poll\",\"subscription\":{id}}}");
        for expect in 0..3 {
            let resp = client.request(&poll).unwrap();
            assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
            let w = resp.get("window").unwrap();
            assert_eq!(w.get("index").unwrap().as_number(), Some(expect as f64));
            assert_eq!(
                w.get("start_row").unwrap().as_number(),
                Some((expect * 200) as f64)
            );
            assert_eq!(
                w.get("end_row").unwrap().as_number(),
                Some(((expect + 1) * 200) as f64)
            );
            assert_eq!(w.get("replayed").unwrap(), &Value::Bool(false));
            let answer = w.get("answer").unwrap();
            assert_eq!(answer.get("epsilon_spent").unwrap().as_number(), Some(0.5));
        }
        let open = client.request(&poll).unwrap();
        assert_eq!(open.get("window").unwrap(), &Value::Null);

        // The per-window debits land in the ledger, attributed to
        // alice, and the schema-v7 stream object reflects the drain.
        let stats = client
            .request("{\"v\":3,\"op\":\"stats\",\"dataset\":\"t\"}")
            .unwrap();
        let stream = stats.get("stream").unwrap();
        assert_eq!(stream.get("subscriptions").unwrap().as_number(), Some(1.0));
        assert_eq!(stream.get("windows_closed").unwrap().as_number(), Some(3.0));
        assert_eq!(
            stream.get("windows_replayed").unwrap().as_number(),
            Some(0.0)
        );
        assert_eq!(stream.get("rows_aged").unwrap().as_number(), Some(600.0));
        assert_eq!(stream.get("epsilon_spent").unwrap().as_number(), Some(1.5));
        let ledger = stats.get("ledger").unwrap();
        assert!((ledger.get("spent").unwrap().as_number().unwrap() - 1.5).abs() < 1e-9);
        let alice = stats.get("principals").unwrap().get("alice").unwrap();
        assert!((alice.get("spent").unwrap().as_number().unwrap() - 1.5).abs() < 1e-9);
        server.shutdown();
    }

    #[test]
    fn duplicate_subscription_replays_closed_windows_at_zero_epsilon() {
        let server = test_server(10.0, &[]);
        let mut client = ServeClient::connect(server.addr()).unwrap();
        let subscribe = "{\"v\":3,\"op\":\"subscribe\",\"dataset\":\"t\",\
             \"program\":\"mean:0\",\"epsilon\":0.5,\"ranges\":[[0,49]],\
             \"window\":{\"size\":300}}";
        let first = client.request(subscribe).unwrap();
        let second = client.request(subscribe).unwrap();
        let id1 = first
            .get("subscription")
            .unwrap()
            .get("id")
            .unwrap()
            .as_number()
            .unwrap();
        let id2 = second
            .get("subscription")
            .unwrap()
            .get("id")
            .unwrap()
            .as_number()
            .unwrap();
        assert_ne!(id1, id2);
        let poll = |client: &mut ServeClient, id: f64| {
            client
                .request(&format!(
                    "{{\"v\":3,\"op\":\"poll\",\"subscription\":{id}}}"
                ))
                .unwrap()
        };
        // Fresh evaluation on the first handle pays ε …
        let fresh = poll(&mut client, id1);
        let w = fresh.get("window").unwrap();
        assert_eq!(w.get("replayed").unwrap(), &Value::Bool(false));
        assert_eq!(
            w.get("answer").unwrap().get("epsilon_spent").unwrap(),
            &Value::Number(0.5)
        );
        // … and the identical window on the second handle replays free.
        let replay = poll(&mut client, id2);
        let w = replay.get("window").unwrap();
        assert_eq!(w.get("replayed").unwrap(), &Value::Bool(true));
        assert_eq!(
            w.get("answer").unwrap().get("epsilon_spent").unwrap(),
            &Value::Number(0.0)
        );
        let stats = client
            .request("{\"v\":3,\"op\":\"stats\",\"dataset\":\"t\"}")
            .unwrap();
        let ledger = stats.get("ledger").unwrap();
        assert!((ledger.get("spent").unwrap().as_number().unwrap() - 0.5).abs() < 1e-9);
        let stream = stats.get("stream").unwrap();
        assert_eq!(
            stream.get("windows_replayed").unwrap().as_number(),
            Some(1.0)
        );
        server.shutdown();
    }

    #[test]
    fn streaming_rejections_on_the_wire() {
        let server = test_server(10.0, &[]);
        let mut client = ServeClient::connect(server.addr()).unwrap();
        // v2 clients cannot stream — version hint, not "unknown op".
        for op in ["subscribe", "poll"] {
            let resp = client
                .request(&format!("{{\"v\":2,\"op\":\"{op}\",\"dataset\":\"t\"}}"))
                .unwrap();
            assert_eq!(resp.get("status").unwrap().as_str(), Some("bad_request"));
            let msg = resp
                .get("error")
                .unwrap()
                .get("message")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string();
            assert!(msg.contains("requires protocol v3"), "{msg:?}");
        }
        // Malformed window objects are the client's fault: 400.
        for window in [
            "",
            ",\"window\":{\"size\":0}",
            ",\"window\":{\"size\":10,\"key\":\"days\"}",
        ] {
            let resp = client
                .request(&format!(
                    "{{\"v\":3,\"op\":\"subscribe\",\"dataset\":\"t\",\"program\":\"mean:0\",\
                     \"epsilon\":0.5,\"ranges\":[[0,49]]{window}}}"
                ))
                .unwrap();
            assert_eq!(
                resp.get("status").unwrap().as_str(),
                Some("bad_request"),
                "window fragment {window:?}"
            );
        }
        // Attribution to a principal the dataset never registered is
        // refused at subscribe time: 403, nothing registered.
        let resp = client
            .request(
                "{\"v\":3,\"op\":\"subscribe\",\"dataset\":\"t\",\"principal\":\"mallory\",\
                 \"program\":\"mean:0\",\"epsilon\":0.5,\"ranges\":[[0,49]],\
                 \"window\":{\"size\":100}}",
            )
            .unwrap();
        assert_eq!(
            resp.get("status").unwrap().as_str(),
            Some("unknown_principal")
        );
        assert_eq!(resp.get("code").unwrap().as_number(), Some(403.0));
        // Polling an id nobody issued: 400 with the id echoed back.
        let resp = client
            .request("{\"v\":3,\"op\":\"poll\",\"subscription\":999}")
            .unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("bad_request"));
        server.shutdown();
    }

    #[test]
    fn teardown_never_stalls_across_many_cycles() {
        // Bind, connect two clients, drop them and shut down, many times.
        // A shutdown notify lost between a worker's flag check and its
        // wait leaves the worker asleep and `shutdown` blocked joining
        // it, so every cycle is checked against a timer.
        const CYCLES: usize = 10_000;
        let template = test_server(1.0, &[]);
        let service = template.state.service.clone();
        template.shutdown();
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = thread::spawn(move || {
            for cycle in 0..CYCLES {
                let server =
                    GuptServer::bind(service.clone(), "127.0.0.1:0", ServeConfig::new(2)).unwrap();
                let clients = (
                    ServeClient::connect(server.addr()).unwrap(),
                    ServeClient::connect(server.addr()).unwrap(),
                );
                drop(clients);
                server.shutdown();
                if tx.send(cycle).is_err() {
                    return;
                }
            }
        });
        for _ in 0..CYCLES {
            let cycle = rx.recv_timeout(Duration::from_secs(5));
            assert!(cycle.is_ok(), "a bind/connect/shutdown cycle stalled");
        }
        runner.join().unwrap();
    }

    #[test]
    fn shutdown_op_stops_the_server() {
        let server = test_server(1.0, &[]);
        let addr = server.addr();
        let mut client = ServeClient::connect(addr).unwrap();
        let resp = client.request("{\"v\":1,\"op\":\"shutdown\"}").unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
        assert!(server.shutdown_requested());
        server.wait();
    }
}
