//! End-to-end tests driving the compiled `pandora-cli` binary — the
//! user-facing surface, not the library API.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pandora-cli"))
        .args(args)
        .output()
        .expect("spawn pandora-cli")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_lists_all_commands() {
    let out = cli(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in ["run", "recovery", "litmus", "info"] {
        assert!(text.contains(cmd), "help must mention `{cmd}`");
    }
}

#[test]
fn bare_invocation_shows_help() {
    let out = cli(&[]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("COMMANDS"));
}

#[test]
fn unknown_command_is_rejected() {
    let out = cli(&["frobnicate"]);
    assert!(!out.status.success());
}

#[test]
fn info_lists_protocols_workloads_and_bugs() {
    let out = cli(&["info"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for item in ["pandora", "ford", "traditional", "smallbank", "tatp", "tpcc"] {
        assert!(text.to_lowercase().contains(item), "info must list `{item}`:\n{text}");
    }
}

#[test]
fn run_micro_reports_throughput() {
    let out = cli(&[
        "run",
        "--workload",
        "micro",
        "--coordinators",
        "2",
        "--duration",
        "1",
        "--warmup",
        "0",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("tps") || text.contains("committed"),
        "run must report throughput:\n{text}"
    );
}

#[test]
fn run_with_compute_fault_and_respawn_survives() {
    let out = cli(&[
        "run",
        "--workload",
        "micro",
        "--coordinators",
        "2",
        "--duration",
        "2",
        "--warmup",
        "0",
        "--fault",
        "compute:0.5@1",
        "--respawn",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
}

#[test]
fn run_emits_parseable_metrics_json() {
    use pandora::obs::json;

    let path = std::env::temp_dir().join(format!("pandora-metrics-{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = cli(&[
        "run",
        "--workload",
        "micro",
        "--coordinators",
        "2",
        "--duration",
        "1",
        "--warmup",
        "0",
        "--fault",
        "compute:0.5@0.3",
        "--metrics-json",
        path_str,
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let _ = std::fs::remove_file(&path);

    let v = json::parse(&text).expect("metrics must be valid JSON");
    assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("pandora-metrics-v1"));
    let committed = v
        .get("commit")
        .and_then(|c| c.get("committed"))
        .and_then(|c| c.as_u64())
        .expect("commit.committed");
    assert!(committed > 0, "a 1s run must commit transactions");

    let phases = v.get("phases").expect("phases object");
    for name in ["execute", "lock", "validate", "log", "apply", "unlock"] {
        let p = phases.get(name).unwrap_or_else(|| panic!("missing phase {name}"));
        for key in ["count", "p50_ns", "p95_ns", "p99_ns"] {
            assert!(p.get(key).and_then(|x| x.as_u64()).is_some(), "phase {name} missing {key}");
        }
    }
    let reasons = v.get("abort_reasons").expect("abort_reasons object");
    assert!(reasons.get("LockConflict").and_then(|x| x.as_u64()).is_some());

    let fabric = v.get("fabric").expect("fabric key");
    let total = fabric.get("total").expect("fabric.total");
    assert!(total.get("reads").and_then(|x| x.as_u64()).unwrap_or(0) > 0);
    assert!(total.get("bytes_read").and_then(|x| x.as_u64()).unwrap_or(0) > 0);
    assert!(!fabric.get("nodes").and_then(|n| n.as_array()).expect("nodes array").is_empty());

    let recoveries = v.get("recoveries").and_then(|r| r.as_array()).expect("recoveries array");
    assert!(!recoveries.is_empty(), "the injected fault must produce a recovery");
    for key in [
        "detection_ns",
        "link_termination_ns",
        "log_recovery_ns",
        "stray_notification_ns",
        "total_ns",
    ] {
        assert!(
            recoveries[0].get(key).and_then(|x| x.as_u64()).is_some(),
            "recovery entry missing {key}"
        );
    }
}

#[test]
fn recovery_emits_metrics_json() {
    use pandora::obs::json;

    let path =
        std::env::temp_dir().join(format!("pandora-recovery-metrics-{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let out =
        cli(&["recovery", "--frozen", "2", "--workload", "micro", "--metrics-json", path_str]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let _ = std::fs::remove_file(&path);
    let v = json::parse(&text).expect("metrics must be valid JSON");
    let recoveries = v.get("recoveries").and_then(|r| r.as_array()).expect("recoveries array");
    assert_eq!(recoveries.len(), 2, "one entry per frozen coordinator");
    assert!(recoveries
        .iter()
        .all(|r| r.get("completed").and_then(|c| c.as_bool()) == Some(true)));
}

#[test]
fn run_rejects_bad_fault_spec() {
    for spec in ["compute:2.0@1", "memory:9@0.2", "banana", "compute:@"] {
        let out = cli(&["run", "--workload", "micro", "--duration", "1", "--fault", spec]);
        assert!(!out.status.success(), "fault spec `{spec}` must be rejected");
        assert!(!stderr(&out).is_empty(), "rejection of `{spec}` must explain itself");
    }
}

#[test]
fn run_rejects_unknown_workload_and_protocol() {
    let out = cli(&["run", "--workload", "nope"]);
    assert!(!out.status.success());
    let out = cli(&["run", "--protocol", "nope"]);
    assert!(!out.status.success());
}

#[test]
fn recovery_reports_latency() {
    let out = cli(&["recovery", "--frozen", "2", "--workload", "micro"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("µs") || text.contains("us") || text.contains("recover"),
        "recovery must report a latency:\n{text}"
    );
    for budget in [" verbs=", " barriers=", " fanouts=1"] {
        assert_eq!(text.matches(budget).count(), 2, "one budget per coordinator:\n{text}");
    }
}

#[test]
fn litmus_clean_run_passes() {
    let out = cli(&["litmus", "--iterations", "2"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("PASS"), "litmus must report PASS lines:\n{text}");
    assert!(!text.contains("VIOLATION"), "clean litmus must not violate:\n{text}");
}

#[test]
fn litmus_with_bug_reproduces_violation() {
    let out = cli(&["litmus", "--bug", "complicit-abort", "--iterations", "2"]);
    // Reproducing the bug is the expected demonstration (exit 0); only
    // a violation under the FIXED protocol would fail the command.
    let text = stdout(&out);
    assert!(
        text.contains("VIOLATION"),
        "buggy litmus must reproduce the violation:\n{text}\nstderr: {}",
        stderr(&out)
    );
    assert!(text.contains("passes"), "the fixed protocol must pass:\n{text}");
    assert!(out.status.success());
}

#[test]
fn litmus_rejects_unknown_bug() {
    let out = cli(&["litmus", "--bug", "nonexistent-bug"]);
    assert!(!out.status.success());
    assert!(!stderr(&out).is_empty());
}
