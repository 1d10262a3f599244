//! Schema guard for `pandora-metrics-v1`: the set of key paths (and the
//! JSON type at each) that `MetricsSnapshot::to_json()` emits for a short
//! faulted run must contain every line of `metrics_schema_keys.txt`. A
//! change may add keys — append them to the list — but never drop or
//! retype one: dashboards, `tools/` and the CI greps read this document.
//!
//! The list was generated from the commit before the telemetry
//! consolidation (PR 20) by printing `key_paths` of this very run; keys
//! added since are listed in the second test until a later PR folds them
//! into the file.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use pandora::obs::json::{self, JsonValue};
use pandora::{ProtocolKind, SimCluster, SystemConfig};
use pandora_workloads::{with_tables, MicroBench, RunnerConfig, Workload, WorkloadRunner};
use rdma_sim::{ChaosConfig, LatencyModel};

/// Every path of `v` with the JSON type found there; array elements
/// share the path `<array>[]`, so an empty array hides its element keys.
fn key_paths(v: &JsonValue, path: &str, out: &mut BTreeMap<String, &'static str>) {
    let kind = match v {
        JsonValue::Null => "null",
        JsonValue::Bool(_) => "bool",
        JsonValue::Num(_) => "num",
        JsonValue::Str(_) => "str",
        JsonValue::Arr(_) => "arr",
        JsonValue::Obj(_) => "obj",
    };
    if let Some(other) = out.insert(path.to_string(), kind) {
        assert_eq!(other, kind, "{path} has two types in one document");
    }
    match v {
        JsonValue::Arr(items) => {
            for item in items {
                key_paths(item, &format!("{path}[]"), out);
            }
        }
        JsonValue::Obj(fields) => {
            for (key, val) in fields {
                let sub = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                key_paths(val, &sub, out);
            }
        }
        _ => {}
    }
}

/// A quarter-second interleaved, striped micro run (chaos model installed) with
/// one coordinator crashed and recovered half-way: every section of the
/// document is populated. Returns the JSON of a snapshot taken while the
/// workers still ran and of one taken after they were joined.
fn faulted_run() -> (String, String) {
    let bench = Arc::new(MicroBench::new(512, 0.5));
    let config = SystemConfig::new(ProtocolKind::Pandora)
        .with_inflight_txns(4)
        .with_qp_stripes(4);
    let cluster = with_tables(
        SimCluster::builder(ProtocolKind::Pandora)
            .memory_nodes(2)
            .replication(2)
            .capacity_per_node(64 << 20)
            .latency(LatencyModel { rtt: Duration::from_micros(2), ns_per_kib: 0 })
            .config(config)
            .chaos(ChaosConfig::light(42)),
        bench.as_ref(),
    )
    .build()
    .unwrap();
    bench.load(&cluster);
    let cluster = Arc::new(cluster);
    let runner = WorkloadRunner::spawn(
        Arc::clone(&cluster),
        bench,
        RunnerConfig { coordinators: 2, seed: 3, phase_metrics: true },
    );
    let timeline = runner.timeline_sampler(Duration::from_millis(10));
    std::thread::sleep(Duration::from_millis(120));
    let victim = runner.crash_worker(0);
    cluster.fd.declare_failed(victim).expect("recovery ran");
    std::thread::sleep(Duration::from_millis(120));
    let registry = runner.metrics();
    let live = registry.snapshot().to_json();
    runner.stop_and_join();
    registry.add_reports(&cluster.fd.reports());
    registry.add_timeline(&timeline.finish());
    (live, registry.snapshot().to_json())
}

fn paths_of(doc: &str) -> BTreeMap<String, &'static str> {
    let v = json::parse(doc).expect("metrics JSON parses");
    let mut out = BTreeMap::new();
    key_paths(&v, "", &mut out);
    out.remove("");
    out
}

/// Assert that `emitted` holds every `path type` line of `wanted`.
fn assert_holds(emitted: &BTreeMap<String, &'static str>, wanted: &str) {
    let mut checked = 0;
    for line in wanted.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let (path, kind) = line.split_once(' ').expect("`path type` per line");
        match emitted.get(path) {
            Some(found) => assert_eq!(*found, kind, "{path} changed type"),
            None => panic!("{path} ({kind}) is no longer emitted; got:\n{emitted:#?}"),
        }
        checked += 1;
    }
    assert!(checked > 0, "empty key list");
}

#[test]
fn metrics_schema_keeps_every_key_path() {
    let (_, done) = faulted_run();
    assert_holds(&paths_of(&done), include_str!("metrics_schema_keys.txt"));
}

#[test]
fn metrics_schema_has_recovery_costs_and_live_stripes() {
    let (live, done) = faulted_run();
    assert_holds(
        &paths_of(&done),
        "recoveries[].verbs num\nrecoveries[].barriers num\nrecoveries[].link_fanouts num",
    );
    // Lane counters are read from the fabric's per-queue-pair blocks, so
    // they are there while the coordinators that own the lanes still run.
    let live = json::parse(&live).unwrap();
    let stripes = live.get("stripes").and_then(|s| s.as_array()).expect("stripes array");
    assert!(!stripes.is_empty(), "no stripes in a snapshot taken before stop_and_join");
    for node in stripes {
        let lanes = node.get("lanes").and_then(|l| l.as_array()).expect("lanes array");
        assert_eq!(lanes.len(), 4, "qp_stripes = 4");
        let ops = |l: &JsonValue| l.get("reads").and_then(|n| n.as_u64()).expect("reads");
        assert!(lanes.iter().map(ops).sum::<u64>() > 0, "live lanes counted nothing");
    }
}
