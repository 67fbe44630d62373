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
    let _ = std::fs::remove_dir_all(&p);
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

/// Parses `ledger show`'s `name = value` line.
fn show_field(show: &str, name: &str) -> f64 {
    show.lines()
        .find_map(|l| l.trim().strip_prefix(name))
        .and_then(|rest| rest.trim().strip_prefix('='))
        .unwrap_or_else(|| panic!("no {name:?} line in {show}"))
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{name:?} in {show}: {e}"))
}

#[test]
fn concurrent_ledger_queries_never_lose_a_debit() {
    let csv = tmp("race.csv");
    let ledger = tmp("race.ledger");
    let csv_s = csv.to_str().unwrap();
    let ledger_s = ledger.to_str().unwrap();
    run(&["generate", "ads", "--rows", "500", "--out", csv_s]);
    let init = run(&["ledger", "init", "--ledger", ledger_s, "--budget", "100"]);
    assert!(init.status.success(), "{}", stderr(&init));
    let lock = ledger.join("data.lock");

    let mut successes = 0u32;
    for round in 0..5 {
        let children: Vec<_> = (0..12)
            .map(|i| {
                Command::new(bin())
                    .args([
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
                        "0,15",
                        "--seed",
                        &format!("{}", round * 12 + i),
                        "--header",
                        "yes",
                    ])
                    .stdout(std::process::Stdio::piped())
                    .stderr(std::process::Stdio::piped())
                    .spawn()
                    .expect("spawn query")
            })
            .collect();
        for child in children {
            let out = child.wait_with_output().expect("query exits");
            if out.status.success() {
                successes += 1;
                continue;
            }
            // The only allowed failure is the lock refusing a second
            // writer, and its message names the lock file.
            let err = stderr(&out);
            assert!(err.contains("another process holds the ledger"), "{err}");
            assert!(err.contains(lock.to_str().unwrap()), "{err}");
            assert!(!err.contains("fix the disk"), "{err}");
        }
        let show = run(&["ledger", "show", "--ledger", ledger_s]);
        assert!(show.status.success(), "{}", stderr(&show));
        let text = stdout(&show);
        assert_eq!(
            show_field(&text, "spent     ε"),
            0.5 * successes as f64,
            "{text}"
        );
        assert_eq!(show_field(&text, "queries"), successes as f64, "{text}");
    }
    assert!(successes >= 5, "every round has a lock winner");
}

#[test]
fn second_server_on_a_locked_state_dir_exits_nonzero() {
    use gupt_serve::json::Value;
    use gupt_serve::{QueryPayload, ServeClient};
    use std::io::{BufRead, BufReader};
    use std::process::{Child, Stdio};
    use std::time::{Duration, Instant};

    /// Kills a server the test did not shut down, so a failing
    /// assertion leaves no process behind.
    struct KillOnDrop(Child);
    impl Drop for KillOnDrop {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let spawn = |args: &[&str]| {
        KillOnDrop(
            Command::new(bin())
                .args(args)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn server"),
        )
    };

    let csv = tmp("locked_serve.csv");
    let state = tmp("locked_serve_state");
    let csv_s = csv.to_str().unwrap();
    let state_s = state.to_str().unwrap();
    run(&["generate", "census", "--rows", "500", "--out", csv_s]);
    let serve = [
        "serve",
        "--bind",
        "127.0.0.1:0",
        "--data",
        csv_s,
        "--header",
        "yes",
        "--budget",
        "5",
        "--state-dir",
        state_s,
    ];
    let mut first = spawn(&serve);
    // Kept open until the server exits: it prints a summary on shutdown.
    let mut first_out = BufReader::new(first.0.stdout.take().unwrap());
    let mut line = String::new();
    first_out.read_line(&mut line).unwrap();
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .trim()
        .to_string();

    // The second server must exit at once; one that starts serving is
    // killed at the deadline, so the failure shows instead of hanging.
    let mut second = spawn(&serve);
    let deadline = Instant::now() + Duration::from_secs(30);
    while second.0.try_wait().unwrap().is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = second.0.kill();
    assert!(!second.0.wait().expect("reap second server").success());
    let mut err = String::new();
    std::io::Read::read_to_string(&mut second.0.stderr.take().unwrap(), &mut err).unwrap();
    assert!(err.contains("another process holds the ledger"), "{err}");
    assert!(
        err.contains(state.join("data.lock").to_str().unwrap()),
        "{err}"
    );

    // The first server still answers against its books.
    let mut client = ServeClient::connect(&addr).expect("connect");
    let query = QueryPayload::new("data", "mean:0", &[(0.0, 150.0)])
        .epsilon(0.5)
        .to_json();
    let resp = client.request(&query).unwrap();
    assert_eq!(
        resp.get("status").and_then(Value::as_str),
        Some("ok"),
        "{resp:?}"
    );
    client.request("{\"v\":1,\"op\":\"shutdown\"}").unwrap();
    assert!(first.0.wait().expect("reap first server").success());
}

#[test]
fn uninitialised_ledger_directory_fails_and_creates_nothing() {
    let csv = tmp("no_ledger.csv");
    let ledger = tmp("never_initialised.ledger");
    let csv_s = csv.to_str().unwrap();
    let ledger_s = ledger.to_str().unwrap();
    run(&["generate", "ads", "--rows", "200", "--out", csv_s]);
    for sql in [false, true] {
        let mut args = vec![
            "query", "--data", csv_s, "--ledger", ledger_s, "--range", "0,15", "--header", "yes",
        ];
        if sql {
            args.extend(["--sql", "SELECT AVG(c0) FROM ads WITH EPSILON 0.5"]);
        } else {
            args.extend(["--program", "mean:0", "--epsilon", "0.5"]);
        }
        let out = run(&args);
        assert!(!out.status.success());
        assert!(stderr(&out).contains("ledger init"), "{}", stderr(&out));
        assert!(!ledger.exists(), "a failed query created {ledger:?}");
    }
    let show = run(&["ledger", "show", "--ledger", ledger_s]);
    assert!(!show.status.success());
    assert!(!ledger.exists());
}

#[test]
fn old_key_value_ledger_file_is_refused_and_left_unchanged() {
    let csv = tmp("old_format.csv");
    let ledger = tmp("old_format.ledger");
    let csv_s = csv.to_str().unwrap();
    let ledger_s = ledger.to_str().unwrap();
    run(&["generate", "ads", "--rows", "200", "--out", csv_s]);
    let old = "total=5\nspent=1.25\nqueries=3\n";
    std::fs::write(&ledger, old).unwrap();

    let query = run(&[
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
        "0,15",
        "--header",
        "yes",
    ]);
    let show = run(&["ledger", "show", "--ledger", ledger_s]);
    for out in [query, show] {
        assert!(!out.status.success());
        let err = stderr(&out);
        assert!(err.contains("ledger format changed"), "{err}");
        assert!(err.contains("ledger init"), "{err}");
    }
    assert_eq!(std::fs::read_to_string(&ledger).unwrap(), old);
}
