//! CI gate: validates bench run-reports against the telemetry schema.
//!
//! Usage: `validate_run_report FILE.json [FILE.json ...]`
//!
//! Each file must be a `RunReport` document: the envelope fields,
//! numeric `settings`/`metrics`, and — when present — a `telemetry`
//! object at the current schema version carrying all six stage
//! timings, the block counters, the ledger event, (since schema v3)
//! the answer-cache counters, (since schema v5) the `parallel`
//! execution object (with `spawned` in place of `steals` since v9),
//! (since schema v6) the `ingest` counters,
//! (since schema v7) the `stream` continuous-query counters and
//! (since schema v8) the `sql` front-end counters,
//! exactly as `gupt-cli --telemetry json`
//! emits them. Exits non-zero on the first malformed report so the
//! bench-smoke CI job fails loudly instead of archiving garbage.

use gupt_bench::json::{parse, Value};
use std::process::ExitCode;

const STAGE_KEYS: [&str; 6] = [
    "budget_resolution_ms",
    "ledger_charge_ms",
    "block_planning_ms",
    "chamber_execution_ms",
    "range_resolution_ms",
    "aggregation_ms",
];

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: validate_run_report FILE.json [FILE.json ...]");
        return ExitCode::FAILURE;
    }
    for file in &files {
        match validate_file(file) {
            Ok(bench) => println!("ok: {file} (bench {bench:?})"),
            Err(e) => {
                eprintln!("FAIL: {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn validate_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("parse: {e}"))?;
    validate_run_report(&doc)
}

fn validate_run_report(doc: &Value) -> Result<String, String> {
    let version = require_number(doc, "run_report_version")?;
    if version != f64::from(gupt_bench::report::RUN_REPORT_VERSION) {
        return Err(format!(
            "unknown run_report_version {version}: this validator understands version {} — \
             regenerate the report with matching tools or update the validator",
            gupt_bench::report::RUN_REPORT_VERSION
        ));
    }
    let bench = doc
        .get("bench")
        .and_then(Value::as_str)
        .ok_or("missing string field \"bench\"")?
        .to_string();
    for section in ["settings", "metrics"] {
        let obj = doc
            .get(section)
            .and_then(Value::as_object)
            .ok_or_else(|| format!("missing object field {section:?}"))?;
        for (k, v) in obj {
            if !matches!(v, Value::Number(_) | Value::Null) {
                return Err(format!("{section}.{k} must be a number or null"));
            }
        }
    }
    match doc.get("telemetry") {
        Some(Value::Null) => {}
        Some(t) => validate_telemetry(t)?,
        None => return Err("missing field \"telemetry\" (use null when absent)".into()),
    }
    Ok(bench)
}

fn validate_telemetry(t: &Value) -> Result<(), String> {
    let version = require_number(t, "schema_version")?;
    if version != f64::from(gupt_core::TELEMETRY_SCHEMA_VERSION) {
        return Err(format!("unsupported telemetry schema_version {version}"));
    }
    require_number_or_null(t, "total_ms")?;

    let stages = t
        .get("stages")
        .and_then(Value::as_object)
        .ok_or("telemetry.stages must be an object")?;
    for key in STAGE_KEYS {
        let v = stages
            .get(key)
            .ok_or_else(|| format!("telemetry.stages missing {key:?}"))?;
        if !matches!(v, Value::Number(_) | Value::Null) {
            return Err(format!("telemetry.stages.{key} must be a number or null"));
        }
    }

    let blocks = t
        .get("blocks")
        .ok_or("telemetry.blocks must be an object")?;
    for key in [
        "run",
        "completed",
        "timed_out",
        "panicked",
        "workers",
        "views_served",
        "bytes_materialized",
    ] {
        let n = require_number(blocks, key).map_err(|e| format!("telemetry.blocks: {e}"))?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!(
                "telemetry.blocks.{key} must be a non-negative integer"
            ));
        }
    }
    require_number_or_null(blocks, "worker_utilization")
        .map_err(|e| format!("telemetry.blocks: {e}"))?;

    let hits = t
        .get("clamp_hits")
        .and_then(Value::as_array)
        .ok_or("telemetry.clamp_hits must be an array")?;
    if !hits
        .iter()
        .all(|h| matches!(h, Value::Number(n) if *n >= 0.0))
    {
        return Err("telemetry.clamp_hits must hold non-negative numbers".into());
    }

    let ledger = t
        .get("ledger")
        .ok_or("telemetry.ledger must be an object")?;
    for key in ["epsilon_requested", "epsilon_charged", "remaining_budget"] {
        require_number_or_null(ledger, key).map_err(|e| format!("telemetry.ledger: {e}"))?;
    }

    let cache = t.get("cache").ok_or("telemetry.cache must be an object")?;
    for key in [
        "hits",
        "misses",
        "evictions",
        "recovered_entries",
        "entries",
        "capacity",
    ] {
        let n = require_number(cache, key).map_err(|e| format!("telemetry.cache: {e}"))?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!(
                "telemetry.cache.{key} must be a non-negative integer"
            ));
        }
    }
    require_number_or_null(cache, "epsilon_saved").map_err(|e| format!("telemetry.cache: {e}"))?;

    // The schema-v5 `parallel` object is mandatory: every executed
    // query reports its pool shape (all-zero on cache hits).
    let parallel = t
        .get("parallel")
        .ok_or("telemetry.parallel must be an object (schema v5)")?;
    validate_parallel(parallel)?;

    // The schema-v6 `ingest` object is mandatory: all-zero for datasets
    // that never saw an append, but always present.
    let ingest = t
        .get("ingest")
        .ok_or("telemetry.ingest must be an object (schema v6)")?;
    for key in ["appends", "rows_appended", "bytes_materialized"] {
        let n = require_number(ingest, key).map_err(|e| format!("telemetry.ingest: {e}"))?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!(
                "telemetry.ingest.{key} must be a non-negative integer"
            ));
        }
    }

    // The schema-v7 `stream` object is mandatory: all-zero for runtimes
    // that never registered a subscription, but always present.
    let stream = t
        .get("stream")
        .ok_or("telemetry.stream must be an object (schema v7)")?;
    for key in [
        "subscriptions",
        "windows_closed",
        "windows_replayed",
        "rows_aged",
    ] {
        let n = require_number(stream, key).map_err(|e| format!("telemetry.stream: {e}"))?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!(
                "telemetry.stream.{key} must be a non-negative integer"
            ));
        }
    }
    let eps =
        require_number(stream, "epsilon_spent").map_err(|e| format!("telemetry.stream: {e}"))?;
    if eps < 0.0 {
        return Err("telemetry.stream.epsilon_spent must be non-negative".into());
    }

    // The schema-v8 `sql` object is mandatory: all-zero for runtimes
    // that never saw a DP-SQL statement, but always present.
    let sql = t
        .get("sql")
        .ok_or("telemetry.sql must be an object (schema v8)")?;
    for key in [
        "statements_parsed",
        "statements_planned",
        "suppressed_groups",
    ] {
        let n = require_number(sql, key).map_err(|e| format!("telemetry.sql: {e}"))?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!(
                "telemetry.sql.{key} must be a non-negative integer"
            ));
        }
    }

    // The schema-v4 `serve` object is attached only by a network front
    // door; when present it must be complete and well-typed.
    if let Some(serve) = t.get("serve") {
        validate_serve(serve)?;
    }
    Ok(())
}

fn validate_parallel(parallel: &Value) -> Result<(), String> {
    for key in ["workers", "spawned"] {
        let n = require_number(parallel, key).map_err(|e| format!("telemetry.parallel: {e}"))?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!(
                "telemetry.parallel.{key} must be a non-negative integer"
            ));
        }
    }
    for key in ["wall_ms", "cpu_ms"] {
        let n = require_number(parallel, key).map_err(|e| format!("telemetry.parallel: {e}"))?;
        if n < 0.0 {
            return Err(format!("telemetry.parallel.{key} must be non-negative"));
        }
    }
    Ok(())
}

fn validate_serve(serve: &Value) -> Result<(), String> {
    for key in ["accepted", "refused", "in_flight"] {
        let n = require_number(serve, key).map_err(|e| format!("telemetry.serve: {e}"))?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!(
                "telemetry.serve.{key} must be a non-negative integer"
            ));
        }
    }
    let principals = serve
        .get("principals")
        .and_then(Value::as_object)
        .ok_or("telemetry.serve.principals must be an object")?;
    for (name, spent) in principals {
        match spent {
            Value::Number(n) if *n >= 0.0 => {}
            _ => {
                return Err(format!(
                    "telemetry.serve.principals.{name} must be a non-negative ε total"
                ))
            }
        }
    }
    for key in ["p50_ms", "p99_ms"] {
        let n = require_number(serve, key).map_err(|e| format!("telemetry.serve: {e}"))?;
        if n < 0.0 {
            return Err(format!("telemetry.serve.{key} must be non-negative"));
        }
    }
    Ok(())
}

fn require_number(doc: &Value, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Value::as_number)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn require_number_or_null(doc: &Value, key: &str) -> Result<(), String> {
    match doc.get(key) {
        Some(Value::Number(_) | Value::Null) => Ok(()),
        _ => Err(format!("field {key:?} must be a number or null")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupt_bench::report::RunReport;
    use gupt_core::TelemetryReport;

    #[test]
    fn accepts_emitter_output_without_telemetry() {
        let doc = parse(&RunReport::new("b").setting("rows", 1.0).to_json()).unwrap();
        assert_eq!(validate_run_report(&doc).unwrap(), "b");
    }

    #[test]
    fn accepts_emitter_output_with_telemetry() {
        let doc = parse(
            &RunReport::new("b")
                .telemetry(TelemetryReport::default())
                .to_json(),
        )
        .unwrap();
        validate_run_report(&doc).unwrap();
    }

    #[test]
    fn rejects_missing_stage_key() {
        let json = RunReport::new("b")
            .telemetry(TelemetryReport::default())
            .to_json()
            .replace("\"aggregation_ms\"", "\"aggregation_msX\"");
        let doc = parse(&json).unwrap();
        let err = validate_run_report(&doc).unwrap_err();
        assert!(err.contains("aggregation_ms"), "{err}");
    }

    #[test]
    fn rejects_unknown_version_with_clear_error() {
        let doc = parse(
            r#"{"run_report_version":99,"bench":"b","settings":{},"metrics":{},"telemetry":null}"#,
        )
        .unwrap();
        let err = validate_run_report(&doc).unwrap_err();
        assert!(err.contains("unknown run_report_version 99"), "{err}");
        assert!(
            err.contains(&format!(
                "understands version {}",
                gupt_bench::report::RUN_REPORT_VERSION
            )),
            "{err}"
        );
    }

    fn report_with_serve() -> String {
        let tel = TelemetryReport {
            serve: Some(gupt_core::ServeTelemetry {
                accepted: 12,
                refused: 1,
                in_flight: 3,
                principals: vec![("alice".to_string(), 1.25)],
                p50_ms: 0.4,
                p99_ms: 9.5,
            }),
            ..Default::default()
        };
        RunReport::new("serve_load").telemetry(tel).to_json()
    }

    #[test]
    fn accepts_schema_v4_serve_object() {
        let doc = parse(&report_with_serve()).unwrap();
        validate_run_report(&doc).unwrap();
    }

    #[test]
    fn rejects_serve_object_missing_counters() {
        let json = report_with_serve().replace("\"refused\"", "\"refusedX\"");
        let doc = parse(&json).unwrap();
        let err = validate_run_report(&doc).unwrap_err();
        assert!(
            err.contains("telemetry.serve") && err.contains("refused"),
            "{err}"
        );
    }

    #[test]
    fn rejects_serve_object_with_bad_principal_spend() {
        let json = report_with_serve().replace("\"alice\":1.25", "\"alice\":\"lots\"");
        let doc = parse(&json).unwrap();
        let err = validate_run_report(&doc).unwrap_err();
        assert!(err.contains("principals.alice"), "{err}");
    }

    #[test]
    fn rejects_fractional_serve_counter() {
        let json = report_with_serve().replace("\"accepted\":12", "\"accepted\":12.5");
        let doc = parse(&json).unwrap();
        let err = validate_run_report(&doc).unwrap_err();
        assert!(err.contains("accepted"), "{err}");
    }

    #[test]
    fn rejects_missing_parallel_object() {
        let json = RunReport::new("b")
            .telemetry(TelemetryReport::default())
            .to_json()
            .replace("\"parallel\":{", "\"parallelX\":{");
        let doc = parse(&json).unwrap();
        let err = validate_run_report(&doc).unwrap_err();
        assert!(err.contains("telemetry.parallel"), "{err}");
    }

    #[test]
    fn rejects_missing_ingest_object() {
        let json = RunReport::new("b")
            .telemetry(TelemetryReport::default())
            .to_json()
            .replace("\"ingest\":{", "\"ingestX\":{");
        let doc = parse(&json).unwrap();
        let err = validate_run_report(&doc).unwrap_err();
        assert!(err.contains("telemetry.ingest"), "{err}");
    }

    #[test]
    fn rejects_fractional_ingest_counter() {
        let json = RunReport::new("b")
            .telemetry(TelemetryReport::default())
            .to_json()
            .replace("\"rows_appended\":0", "\"rows_appended\":0.5");
        let doc = parse(&json).unwrap();
        let err = validate_run_report(&doc).unwrap_err();
        assert!(err.contains("telemetry.ingest.rows_appended"), "{err}");
    }

    #[test]
    fn rejects_fractional_spawn_count() {
        let json = RunReport::new("b")
            .telemetry(TelemetryReport::default())
            .to_json()
            .replace("\"spawned\":0", "\"spawned\":0.5");
        let doc = parse(&json).unwrap();
        let err = validate_run_report(&doc).unwrap_err();
        assert!(err.contains("telemetry.parallel.spawned"), "{err}");
    }

    #[test]
    fn rejects_negative_parallel_wall_time() {
        let json = RunReport::new("b")
            .telemetry(TelemetryReport::default())
            .to_json()
            .replace("\"wall_ms\":0", "\"wall_ms\":-1");
        let doc = parse(&json).unwrap();
        let err = validate_run_report(&doc).unwrap_err();
        assert!(err.contains("telemetry.parallel.wall_ms"), "{err}");
    }

    #[test]
    fn rejects_missing_stream_object() {
        let json = RunReport::new("b")
            .telemetry(TelemetryReport::default())
            .to_json()
            .replace("\"stream\":{", "\"streamX\":{");
        let doc = parse(&json).unwrap();
        let err = validate_run_report(&doc).unwrap_err();
        assert!(err.contains("telemetry.stream"), "{err}");
    }

    #[test]
    fn rejects_fractional_stream_counter() {
        let json = RunReport::new("b")
            .telemetry(TelemetryReport::default())
            .to_json()
            .replace("\"windows_closed\":0", "\"windows_closed\":0.5");
        let doc = parse(&json).unwrap();
        let err = validate_run_report(&doc).unwrap_err();
        assert!(err.contains("telemetry.stream.windows_closed"), "{err}");
    }

    #[test]
    fn rejects_missing_sql_object() {
        let json = RunReport::new("b")
            .telemetry(TelemetryReport::default())
            .to_json()
            .replace("\"sql\":{", "\"sqlX\":{");
        let doc = parse(&json).unwrap();
        let err = validate_run_report(&doc).unwrap_err();
        assert!(err.contains("telemetry.sql"), "{err}");
    }

    #[test]
    fn rejects_fractional_sql_counter() {
        let json = RunReport::new("b")
            .telemetry(TelemetryReport::default())
            .to_json()
            .replace("\"statements_planned\":0", "\"statements_planned\":0.5");
        let doc = parse(&json).unwrap();
        let err = validate_run_report(&doc).unwrap_err();
        assert!(err.contains("telemetry.sql.statements_planned"), "{err}");
    }

    #[test]
    fn rejects_non_numeric_metric() {
        let doc = parse(r#"{"run_report_version":1,"bench":"b","settings":{},"metrics":{"m":"fast"},"telemetry":null}"#).unwrap();
        let err = validate_run_report(&doc).unwrap_err();
        assert!(err.contains("metrics.m"), "{err}");
    }

    #[test]
    fn rejects_missing_data_plane_counters() {
        let json = RunReport::new("b")
            .telemetry(TelemetryReport::default())
            .to_json()
            .replace("\"views_served\"", "\"views_servedX\"");
        let doc = parse(&json).unwrap();
        let err = validate_run_report(&doc).unwrap_err();
        assert!(err.contains("views_served"), "{err}");
    }

    #[test]
    fn rejects_missing_cache_counters() {
        let json = RunReport::new("b")
            .telemetry(TelemetryReport::default())
            .to_json()
            .replace("\"recovered_entries\"", "\"recovered_entriesX\"");
        let doc = parse(&json).unwrap();
        let err = validate_run_report(&doc).unwrap_err();
        assert!(err.contains("recovered_entries"), "{err}");
    }

    #[test]
    fn rejects_fractional_block_count() {
        let json = RunReport::new("b")
            .telemetry(TelemetryReport::default())
            .to_json()
            .replace("\"run\":0", "\"run\":1.5");
        let doc = parse(&json).unwrap();
        assert!(validate_run_report(&doc).is_err());
    }
}
