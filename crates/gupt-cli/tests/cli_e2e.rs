//! End-to-end tests driving the compiled `gupt-cli` binary as a user
//! would, including exit codes and cross-process ledger persistence.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_gupt-cli")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gupt_cli_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_exits_zero() {
    let out = run(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
}

#[test]
fn unknown_command_exits_nonzero() {
    let out = run(&["explode"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn full_owner_analyst_workflow() {
    let csv = tmp("flow.csv");
    let ledger = tmp("flow.ledger");
    let csv_s = csv.to_str().unwrap();
    let ledger_s = ledger.to_str().unwrap();

    // Owner: publish dataset + budget.
    let g = run(&[
        "generate", "census", "--rows", "4000", "--seed", "3", "--out", csv_s,
    ]);
    assert!(g.status.success(), "{}", stderr(&g));
    let l = run(&["ledger", "init", "--ledger", ledger_s, "--budget", "1.0"]);
    assert!(l.status.success(), "{}", stderr(&l));

    // Analyst: query within budget.
    let q = run(&[
        "query",
        "--data",
        csv_s,
        "--ledger",
        ledger_s,
        "--program",
        "mean:0",
        "--epsilon",
        "0.7",
        "--range",
        "0,150",
        "--seed",
        "11",
        "--header",
        "yes",
    ]);
    assert!(q.status.success(), "{}", stderr(&q));
    assert!(stdout(&q).contains("remaining ε = 0.3"), "{}", stdout(&q));

    // Analyst: second query exceeds the *persisted* budget in a fresh
    // process — the accounting survives across invocations.
    let q2 = run(&[
        "query",
        "--data",
        csv_s,
        "--ledger",
        ledger_s,
        "--program",
        "mean:0",
        "--epsilon",
        "0.7",
        "--range",
        "0,150",
        "--seed",
        "12",
        "--header",
        "yes",
    ]);
    assert!(!q2.status.success());
    assert!(stderr(&q2).contains("exhausted"), "{}", stderr(&q2));

    // Owner: audit.
    let show = run(&["ledger", "show", "--ledger", ledger_s]);
    assert!(show.status.success());
    let text = stdout(&show);
    assert!(text.contains("spent     ε = 0.7"), "{text}");
    assert!(text.contains("queries     = 1"), "{text}");
}

#[test]
fn failed_query_spends_nothing() {
    let csv = tmp("nospend.csv");
    let ledger = tmp("nospend.ledger");
    let csv_s = csv.to_str().unwrap();
    let ledger_s = ledger.to_str().unwrap();
    run(&["generate", "ads", "--rows", "500", "--out", csv_s]);
    run(&["ledger", "init", "--ledger", ledger_s, "--budget", "2.0"]);

    // A bad program spec fails before the ledger is charged.
    let bad = run(&[
        "query",
        "--data",
        csv_s,
        "--ledger",
        ledger_s,
        "--program",
        "nonsense:9",
        "--epsilon",
        "0.5",
        "--range",
        "0,15",
        "--header",
        "yes",
    ]);
    assert!(!bad.status.success());

    let show = run(&["ledger", "show", "--ledger", ledger_s]);
    assert!(
        stdout(&show).contains("spent     ε = 0"),
        "{}",
        stdout(&show)
    );
}

#[test]
fn zero_block_size_is_a_usage_error_that_spends_nothing() {
    let csv = tmp("zero_beta.csv");
    let ledger = tmp("zero_beta.ledger");
    let csv_s = csv.to_str().unwrap();
    let ledger_s = ledger.to_str().unwrap();
    run(&["generate", "census", "--rows", "500", "--out", csv_s]);
    run(&["ledger", "init", "--ledger", ledger_s, "--budget", "2.0"]);
    let before = stdout(&run(&["ledger", "show", "--ledger", ledger_s]));

    let common = [
        "query",
        "--data",
        csv_s,
        "--ledger",
        ledger_s,
        "--header",
        "yes",
        "--range",
        "0,150",
        "--block-size",
        "0",
    ];
    let one_shot = run(&[&common[..], &["--program", "mean:0", "--epsilon", "0.5"]].concat());
    let sql = run(&[
        &common[..],
        &["--sql", "SELECT AVG(c0) FROM ages WITH EPSILON 1.0"],
    ]
    .concat());
    for out in [one_shot, sql] {
        assert!(!out.status.success());
        assert!(stderr(&out).contains("--block-size"), "{}", stderr(&out));
    }
    let after = stdout(&run(&["ledger", "show", "--ledger", ledger_s]));
    assert_eq!(after, before);
}

#[test]
fn telemetry_json_lands_on_stderr_with_full_schema() {
    let csv = tmp("telemetry.csv");
    let csv_s = csv.to_str().unwrap();
    run(&[
        "generate", "census", "--rows", "2000", "--seed", "5", "--out", csv_s,
    ]);
    let q = run(&[
        "query",
        "--data",
        csv_s,
        "--program",
        "mean:0",
        "--epsilon",
        "1.0",
        "--range",
        "0,150",
        "--seed",
        "21",
        "--header",
        "yes",
        "--telemetry",
        "json",
    ]);
    assert!(q.status.success(), "{}", stderr(&q));

    // stdout carries only the DP answer; the report rides on stderr.
    assert!(!stdout(&q).contains("schema_version"), "{}", stdout(&q));
    let err = stderr(&q);
    let json = err
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("one JSON object on stderr");
    assert!(json.ends_with('}'), "{json}");
    for key in [
        "\"schema_version\":",
        "\"total_ms\":",
        "\"budget_resolution_ms\":",
        "\"ledger_charge_ms\":",
        "\"block_planning_ms\":",
        "\"chamber_execution_ms\":",
        "\"range_resolution_ms\":",
        "\"aggregation_ms\":",
        "\"blocks\":",
        "\"run\":",
        "\"timed_out\":",
        "\"worker_utilization\":",
        "\"clamp_hits\":[",
        "\"ledger\":",
        "\"epsilon_requested\":1",
        "\"epsilon_charged\":1",
        "\"remaining_budget\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn telemetry_reports_file_ledger_remaining_budget() {
    let csv = tmp("telemetry_ledger.csv");
    let ledger = tmp("telemetry_ledger.ledger");
    let csv_s = csv.to_str().unwrap();
    let ledger_s = ledger.to_str().unwrap();
    run(&[
        "generate", "census", "--rows", "2000", "--seed", "5", "--out", csv_s,
    ]);
    run(&["ledger", "init", "--ledger", ledger_s, "--budget", "5"]);
    let q = run(&[
        "query",
        "--data",
        csv_s,
        "--ledger",
        ledger_s,
        "--program",
        "mean:0",
        "--epsilon",
        "0.5",
        "--range",
        "0,150",
        "--seed",
        "21",
        "--header",
        "yes",
        "--telemetry",
        "json",
    ]);
    assert!(q.status.success(), "{}", stderr(&q));
    // The ephemeral in-process runtime holds only this query's ε; the
    // report must surface the *persistent* ledger's balance instead.
    let err = stderr(&q);
    let json = err
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("one JSON object on stderr");
    assert!(json.contains("\"remaining_budget\":4.5"), "{json}");
}

#[test]
fn telemetry_text_mode_renders_stages() {
    let csv = tmp("telemetry_text.csv");
    let csv_s = csv.to_str().unwrap();
    run(&["generate", "ads", "--rows", "800", "--out", csv_s]);
    let q = run(&[
        "query",
        "--data",
        csv_s,
        "--program",
        "mean:0",
        "--epsilon",
        "1.0",
        "--range",
        "0,15",
        "--seed",
        "2",
        "--header",
        "yes",
        "--telemetry",
        "text",
    ]);
    assert!(q.status.success(), "{}", stderr(&q));
    let err = stderr(&q);
    assert!(err.contains("chamber_execution"), "{err}");
    assert!(err.contains("ledger:"), "{err}");
}

#[test]
fn seeded_queries_reproduce_across_processes() {
    let csv = tmp("repro.csv");
    let csv_s = csv.to_str().unwrap();
    run(&[
        "generate", "census", "--rows", "2000", "--seed", "8", "--out", csv_s,
    ]);
    let args = [
        "query",
        "--data",
        csv_s,
        "--program",
        "mean:0",
        "--epsilon",
        "1.0",
        "--range",
        "0,150",
        "--seed",
        "99",
        "--header",
        "yes",
    ];
    let a = stdout(&run(&args));
    let b = stdout(&run(&args));
    assert_eq!(a, b);
}
