//! End-to-end smoke test of the benchmark binary: `run --quick` over all
//! six workloads must emit exactly what `BENCHMARK.json` declares, pass
//! its audits and write traces `pandora-cli trace-check` would accept;
//! the contract form must end in the contract's JSON line.

use std::path::PathBuf;
use std::process::Command;

use pandora::obs::json::{self, JsonValue};

const BIN: &str = env!("CARGO_BIN_EXE_pandora-perf");

fn contract() -> JsonValue {
    json::parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names(doc: &JsonValue, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(|v| v.as_array())
        .expect("list")
        .iter()
        .map(|m| m.get("name").and_then(|n| n.as_str()).expect("name").to_string())
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Metric names of one section, after checking every value and unit.
fn checked_metrics(workload: &JsonValue, section: &str) -> Vec<String> {
    let fields = workload.get(section).and_then(|s| s.as_object()).expect("section");
    for (name, m) in fields {
        let v = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
        assert!(v.is_finite(), "{section}.{name} is not a finite number");
        let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or("");
        assert!(!unit.is_empty(), "{section}.{name} has no unit");
    }
    fields.iter().map(|(name, _)| name.clone()).collect()
}

#[test]
fn quick_run_emits_exactly_the_declared_metrics_and_valid_traces() {
    let out = scratch("quick-run").join("quick.json");
    let run = Command::new(BIN)
        .args(["run", "--quick", "--seed", "11", "--out"])
        .arg(&out)
        .output()
        .expect("run pandora-perf");
    assert!(run.status.success(), "run --quick failed: {}", String::from_utf8_lossy(&run.stderr));

    let decl = contract();
    let doc = json::parse(&std::fs::read_to_string(&out).expect("results file")).expect("results");
    assert_eq!(doc.get("schema").and_then(|s| s.as_str()), Some("pandora-perf-v1"));
    assert_eq!(
        doc.get("comparable").and_then(|c| c.as_bool()),
        Some(false),
        "quick runs are not comparable"
    );
    // What the pipeline gates, then the one workload of the ledger only.
    let mut expected = names(&decl, "workloads");
    expected.push("tatp-rtt0".into());
    assert_eq!(names(&doc, "workloads"), expected);
    assert_eq!(checked_metrics(&doc, "derived"), ["core.sched.speedup_vs_classic"]);
    for w in doc.get("workloads").and_then(|w| w.as_array()).expect("workloads") {
        let name = w.get("name").and_then(|n| n.as_str()).expect("name");
        assert_eq!(w.get("correct").and_then(|c| c.as_bool()), Some(true), "{name}: audit failed");
        assert_eq!(w.get("failed").and_then(|c| c.as_u64()), Some(0), "{name}: failed operations");
        assert_eq!(checked_metrics(w, "end_to_end"), names(&decl, "end_to_end"), "{name}");
        assert_eq!(checked_metrics(w, "per_layer"), names(&decl, "per_layer"), "{name}");
        assert_eq!(
            checked_metrics(w, "ungated"),
            ["abort_share", "error_share", "commit_p99_us", "recovery_p50_us", "recovery_p99_us"],
            "{name}"
        );

        let trace_file = w.get("trace_file").and_then(|t| t.as_str()).expect("trace file");
        let trace_file = out.with_file_name(trace_file);
        let trace =
            json::parse(&std::fs::read_to_string(trace_file).expect("trace")).expect("trace JSON");
        let events = trace.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents");
        assert!(!events.is_empty(), "{name}: empty trace");
        for e in events {
            for field in ["ph", "ts", "pid", "tid", "name"] {
                assert!(e.get(field).is_some(), "{name}: trace event without {field}");
            }
        }
    }

    // A quick run cannot be judged: every row is unresolved, none worse.
    let cmp = Command::new(BIN).arg("compare").arg(&out).arg(&out).output().expect("compare");
    assert!(cmp.status.success());
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(table.contains("unresolved") && !table.contains("worse"), "{table}");
}

#[test]
fn contract_form_ends_in_the_contract_line() {
    let out = Command::new(BIN)
        .args(["--workload", "tatp-rtt2", "--seed", "5", "--seconds", "0.2", "--trace", "0"])
        .output()
        .expect("run pandora-perf");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
    let keys: Vec<&str> =
        line.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct").and_then(|c| c.as_bool()), Some(true));
    assert!(line.get("attempted").and_then(|a| a.as_u64()).expect("attempted") >= 1);
    let metrics: Vec<String> = line
        .get("metrics")
        .and_then(|m| m.as_object())
        .expect("metrics")
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    assert_eq!(metrics, names(&contract(), "end_to_end"));
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "no-such-workload", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--seed", "1"][..],
        &["run", "--seconds", "3"][..],
        &["compare", "only-one.json"][..],
    ] {
        let out = Command::new(BIN).args(args).output().expect("run pandora-perf");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
