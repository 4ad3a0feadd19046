//! End-to-end tests of the `blazer` command-line tool.

use std::process::Command;

fn blazer_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_blazer"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn cli_reports_attack_with_exit_code_1() {
    let f = write_temp(
        "blazer_cli_leak.blz",
        "fn check(high: int #high, low: int) {
            if (high == 0) { tick(100); } else { tick(1); }
        }",
    );
    let out = blazer_cmd().arg("--concretize").arg(&f).arg("check").output().unwrap();
    assert_eq!(out.status.code(), Some(1), "attack exit code");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("attack specification found"), "{stdout}");
    assert!(stdout.contains("witness inputs"), "{stdout}");
}

#[test]
fn cli_reports_safe_with_exit_code_0() {
    let f = write_temp(
        "blazer_cli_safe.blz",
        "fn check(high: int #high, low: int) {
            if (high == 0) { tick(5); } else { tick(5); }
        }",
    );
    let out = blazer_cmd().arg(&f).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("safe"), "{stdout}");
    assert!(stdout.contains("trmg"), "tree rendering expected: {stdout}");
}

#[test]
fn cli_compile_errors_exit_3() {
    let f = write_temp("blazer_cli_bad.blz", "fn check( {");
    let out = blazer_cmd().arg(&f).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert!(!out.stderr.is_empty());
}

#[test]
fn cli_domain_flag() {
    let f = write_temp(
        "blazer_cli_zone.blz",
        "fn check(high: int #high, low: int) {
            let i: int = 0;
            while (i < low) { i = i + 1; }
        }",
    );
    let out = blazer_cmd().args(["--domain", "zone"]).arg(&f).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn cli_help_and_bad_flags_exit_3() {
    let out = blazer_cmd().arg("--help").output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    let out = blazer_cmd().args(["--domain", "wat"]).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    let out = blazer_cmd().args(["--timeout", "nope"]).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    let out = blazer_cmd().args(["--max-lp-calls", "-1"]).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn cli_unknown_flags_exit_3() {
    // A removed or misspelt flag is a usage error, not a file name.
    let f = write_temp(
        "blazer_cli_unknown_flag.blz",
        "fn check(high: int #high) { if (high == 0) { tick(100); } else { tick(1); } }",
    );
    let out = blazer_cmd().args(["--backend", "portfolio"]).arg(&f).arg("check").output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --backend (try --help)"), "{stderr}");
}

#[test]
fn cli_client_rejects_unknown_flags_before_connecting() {
    let f = write_temp(
        "blazer_cli_client_unknown_flag.blz",
        "fn check(high: int #high) { if (high == 0) { tick(100); } else { tick(1); } }",
    );
    // Nothing listens on the discard port: a connection attempt would
    // fail with a different message.
    let out = blazer_cmd()
        .args(["client", "--addr", "127.0.0.1:9", "--backend", "portfolio"])
        .arg(&f)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --backend (try --help)"), "{stderr}");
    assert!(!stderr.contains("127.0.0.1:9"), "the client tried to connect: {stderr}");
}

#[test]
fn cli_env_fault_deadline_is_a_wall_clock_unknown() {
    // The CLI resolves BLAZER_FAULT into the analysis budget: a dead
    // deadline answers Unknown for the wall clock.
    let f = write_temp(
        "blazer_cli_fault_deadline.blz",
        "fn check(high: int #high, low: int) {
            if (high == 0) { tick(1); } else {
                let i: int = 0;
                while (i < low) { i = i + 1; }
            }
        }",
    );
    let out = blazer_cmd().env("BLAZER_FAULT", "deadline:0").arg(&f).arg("check").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("budget exhausted") && stdout.contains("wall-clock"), "{stdout}");
}

#[test]
fn cli_unknown_verdict_exits_2() {
    // Attack synthesis disabled on a leaky program: unknown, exit 2.
    let f = write_temp(
        "blazer_cli_unknown.blz",
        "fn check(high: int #high, low: int) {
            if (high == 0) { tick(100); } else { tick(1); }
        }",
    );
    let out = blazer_cmd().arg("--no-attack").arg(&f).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unknown"), "{stdout}");
}

#[test]
fn cli_timeout_budget_exhaustion_is_reported_within_bounds() {
    // The acceptance check: modPow2_unsafe under a tight deadline answers
    // Unknown with a budget-exhaustion reason, promptly — no hang, no
    // panic.
    let f = write_temp("blazer_cli_modpow2.blz", blazer::benchmarks::stac::MODPOW2_UNSAFE);
    let timeout_secs = 0.2f64;
    let start = std::time::Instant::now();
    let out = blazer_cmd().args(["--timeout", &timeout_secs.to_string()]).arg(&f).output().unwrap();
    let elapsed = start.elapsed();
    assert_eq!(out.status.code(), Some(2), "budget exhaustion exits 2");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("budget exhausted") && stdout.contains("wall-clock"), "{stdout}");
    // Generous overshoot allowance: process startup + one straggling LP
    // poll period. The point is "promptly", not "exactly".
    assert!(
        elapsed.as_secs_f64() < 10.0 * timeout_secs + 2.0,
        "took {elapsed:?} for a {timeout_secs}s deadline"
    );
}

#[test]
fn cli_injected_panic_is_isolated() {
    let f = write_temp(
        "blazer_cli_panic.blz",
        "fn check(high: int #high, low: int) {
            if (high == 0) { tick(100); } else { tick(1); }
        }",
    );
    let out = blazer_cmd().env("BLAZER_FAULT", "panic:1").arg(&f).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "crash maps to unknown exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("analysis crashed"), "{stderr}");
}

#[test]
fn cli_max_lp_calls_never_panics_and_degrades() {
    let f = write_temp(
        "blazer_cli_lpcap.blz",
        "fn check(high: int #high, low: int) {
            let i: int = 0;
            while (i < low) { if (high == 0) { tick(1); } i = i + 1; }
        }",
    );
    let out = blazer_cmd().args(["--max-lp-calls", "3"]).arg(&f).output().unwrap();
    // Depending on rescue grants the analysis may still conclude; the
    // contract is: a verdict, cleanly, with exit code 0, 1, or 2.
    assert!(
        matches!(out.status.code(), Some(0) | Some(1) | Some(2)),
        "unexpected exit: {:?}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn cli_json_mode_emits_the_machine_readable_outcome() {
    let f = write_temp(
        "blazer_cli_json.blz",
        "fn check(high: int #high) {
            if (high == 0) { tick(100); } else { tick(1); }
        }",
    );
    let out = blazer_cmd().arg("--json").arg(&f).arg("check").output().unwrap();
    assert_eq!(out.status.code(), Some(1), "exit codes are unchanged in --json mode");
    let doc = blazer::ir::json::Json::parse(&String::from_utf8_lossy(&out.stdout))
        .expect("stdout is valid JSON");
    use blazer::ir::json::Json;
    assert_eq!(doc.get("function").and_then(Json::as_str), Some("check"));
    assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("attack"));
    assert!(!doc.get("attack").map(Json::is_null).unwrap_or(true), "attack pair attached");
    assert!(doc.get("budget").is_some());
}

#[test]
fn cli_serve_and_client_round_trip() {
    use std::io::BufRead;
    // Ephemeral port: the server prints the resolved address on stdout.
    let mut server = blazer_cmd()
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut first_line = String::new();
    std::io::BufReader::new(server.stdout.take().unwrap()).read_line(&mut first_line).unwrap();
    let addr = first_line.trim().rsplit(' ').next().unwrap().to_string();
    let f = write_temp(
        "blazer_cli_client.blz",
        "fn check(high: int #high) {
            if (high == 0) { tick(100); } else { tick(1); }
        }",
    );
    let run = || blazer_cmd().args(["client", "--addr", &addr]).arg(&f).output().unwrap();
    let out = run();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("attack"));
    let out = run();
    assert!(String::from_utf8_lossy(&out.stdout).contains("[cached]"), "resubmission hits");
    let out = blazer_cmd().args(["client", "--addr", &addr, "--health"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    server.kill().unwrap();
    let _ = server.wait();
}
