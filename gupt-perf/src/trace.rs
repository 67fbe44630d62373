//! Spans recorded by the harness around its calls into each layer.
//!
//! The program itself carries no spans yet, so the traced replay wraps
//! the public entry points it calls: a span has a name, a start, an end,
//! a parent and the request id of the op it belongs to. Stage spans are
//! synthesised from the runtime's `TelemetryReport` and laid end to end
//! inside the span of the call that produced the report. Spans stay in
//! memory and are written out when the run ends.

use gupt_core::{Stage, TelemetryReport};
use std::io::Write;
use std::time::{Duration, Instant};

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Counters read off the reports and answers the traced calls return.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Per-stage durations, one entry per report that ran the stage.
    pub stage_ns: [Vec<u64>; 6],
    pub reports: u64,
    pub blocks_run: u64,
    pub timed_out: u64,
    pub chamber_ns: u64,
    /// Chamber-pool utilisation of each report that ran blocks.
    pub utilization: Vec<f64>,
    pub windows: u64,
    pub rows_aged: u64,
    pub sql_statements: u64,
    pub sql_subplans: u64,
    pub sql_suppressed: u64,
    /// Per statement: `sql_as` wall time minus the isolated parse and
    /// plan timings of the same text.
    pub sql_exec_ns: Vec<u64>,
}

impl Counts {
    /// Folds one telemetry report in. `blocks_scale` multiplies the
    /// block count, for a SQL batch whose answer carries the report of
    /// its first sub-plan only.
    pub fn add_report(&mut self, report: &TelemetryReport, blocks_scale: u64) {
        self.reports += 1;
        for (i, stage) in Stage::ALL.iter().enumerate() {
            if let Some(d) = report.stage(*stage) {
                self.stage_ns[i].push(d.as_nanos() as u64);
            }
        }
        let blocks = &report.blocks;
        self.blocks_run += blocks.run as u64 * blocks_scale;
        self.timed_out += blocks.timed_out as u64;
        if blocks.run > 0 {
            self.utilization.push(blocks.worker_utilization);
            let chamber = report.stage(Stage::ChamberExecution).unwrap_or_default();
            self.chamber_ns += chamber.as_nanos() as u64 * blocks_scale;
        }
    }

    pub fn merge(&mut self, other: Counts) {
        for (mine, theirs) in self.stage_ns.iter_mut().zip(other.stage_ns) {
            mine.extend(theirs);
        }
        self.reports += other.reports;
        self.blocks_run += other.blocks_run;
        self.timed_out += other.timed_out;
        self.chamber_ns += other.chamber_ns;
        self.utilization.extend(other.utilization);
        self.windows += other.windows;
        self.rows_aged += other.rows_aged;
        self.sql_statements += other.sql_statements;
        self.sql_subplans += other.sql_subplans;
        self.sql_suppressed += other.sql_suppressed;
        self.sql_exec_ns.extend(other.sql_exec_ns);
    }
}

/// One thread's span recorder. Spans nest through an open-span stack.
pub struct Tracer {
    origin: Instant,
    pub thread: usize,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
    pub counts: Counts,
}

impl Tracer {
    pub fn new(origin: Instant, thread: usize) -> Self {
        Tracer {
            origin,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
            counts: Counts::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the request id stamped on the spans opened from now on.
    pub fn request(&mut self, req: u64) {
        self.req = req;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req: self.req,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn end(&mut self, idx: usize) {
        let end = self.now_ns();
        debug_assert_eq!(self.stack.last(), Some(&idx), "spans close in LIFO order");
        self.stack.pop();
        self.spans[idx].end_ns = end;
    }

    /// Closes span `idx` under a name chosen by its outcome.
    pub fn end_as(&mut self, idx: usize, name: &'static str) {
        self.spans[idx].name = name;
        self.end(idx);
    }

    /// Records a closed span of `dur` starting at `start_ns`, child of
    /// `parent`.
    fn synth(&mut self, name: &'static str, parent: usize, start_ns: u64, dur: Duration) -> usize {
        self.spans.push(Span {
            name,
            req: self.req,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + dur.as_nanos() as u64,
        });
        self.spans.len() - 1
    }

    /// Adds the runtime's own timings under the closed call span
    /// `call`: a `runtime.run` span of the report's total, holding one
    /// span per recorded stage, laid end to end.
    pub fn report_spans(&mut self, call: usize, report: &TelemetryReport) {
        let start = self.spans[call].start_ns;
        let run = self.synth("runtime.run", call, start, report.total);
        let mut at = start;
        for timing in &report.stages {
            self.synth(stage_span(timing.stage), run, at, timing.duration);
            at += timing.duration.as_nanos() as u64;
        }
    }

    /// Records a probe: an isolated call outside any op, timed alone.
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let saved = std::mem::take(&mut self.stack);
        let idx = self.begin(name);
        let out = std::hint::black_box(f());
        self.end(idx);
        self.stack = saved;
        out
    }
}

/// Span name of a pipeline stage.
pub fn stage_span(stage: Stage) -> &'static str {
    match stage {
        Stage::BudgetResolution => "stage.budget_resolution",
        Stage::LedgerCharge => "stage.ledger_charge",
        Stage::BlockPlanning => "stage.block_planning",
        Stage::ChamberExecution => "stage.chamber_execution",
        Stage::RangeResolution => "stage.range_resolution",
        Stage::Aggregation => "stage.aggregation",
    }
}

/// Self time of every span: its duration minus the time its children
/// cover (children never overlap: they are sequential calls, or stage
/// spans laid end to end).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Writes spans as JSON lines: one object per span.
pub fn write_spans(path: &std::path::Path, tracers: &[Tracer]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in tracers {
        for (i, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{{\"thread\":{},\"id\":{i},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                t.thread, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}
