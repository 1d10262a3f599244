//! End-to-end flight recorder coverage: a multi-coordinator run with a
//! declared failure must leave (a) a valid Chrome trace-event JSON with
//! spans from at least two coordinator tracks plus the chaos track, and
//! (b) a non-empty metrics timeline spanning the recovery window. Also
//! the zero-cost-off guarantee: a disabled recorder is byte-invisible
//! on the wire (mirrors `disabled_chaos_is_invisible`) and on disk.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dkvs::{TableDef, TableId};
use pandora::obs::json;
use pandora::{Coordinator, ProtocolKind, SimCluster, TxnError};
use pandora_workloads::{RunnerConfig, Workload, WorkloadRunner};
use rand::rngs::StdRng;
use rand::RngExt;

const TABLE: TableId = TableId(0);
const N_KEYS: u64 = 64;

fn value(x: i64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[0..8].copy_from_slice(&x.to_le_bytes());
    v
}

fn balance(v: &[u8]) -> i64 {
    i64::from_le_bytes(v[0..8].try_into().unwrap())
}

/// Minimal transfer workload (conservation-friendly, like the soak's).
struct Transfers;

impl Workload for Transfers {
    fn name(&self) -> &'static str {
        "flight-transfers"
    }

    fn tables(&self) -> Vec<TableDef> {
        vec![TableDef::sized_for(0, "t", 16, N_KEYS)]
    }

    fn load(&self, cluster: &SimCluster) {
        cluster.bulk_load(TABLE, (0..N_KEYS).map(|k| (k, value(100)))).unwrap();
    }

    fn execute(&self, co: &mut Coordinator, rng: &mut StdRng) -> Result<(), TxnError> {
        let from = rng.random_range(0..N_KEYS);
        let to = (from + 1 + rng.random_range(0..N_KEYS - 1)) % N_KEYS;
        let mut txn = co.begin();
        let a = balance(&txn.read(TABLE, from)?.expect("from"));
        let b = balance(&txn.read(TABLE, to)?.expect("to"));
        let amount = 3.min(a).max(0);
        txn.write(TABLE, from, &value(a - amount))?;
        txn.write(TABLE, to, &value(b + amount))?;
        txn.commit()
    }
}

fn cluster_with_flight(capacity: Option<usize>) -> Arc<SimCluster> {
    let mut b = SimCluster::builder(ProtocolKind::Pandora)
        .memory_nodes(2)
        .replication(2)
        .capacity_per_node(32 << 20)
        .table(TableDef::sized_for(0, "t", 16, N_KEYS))
        .max_coord_slots(64);
    if let Some(cap) = capacity {
        b = b.flight(cap);
    }
    let cluster = Arc::new(b.build().unwrap());
    Transfers.load(&cluster);
    cluster
}

/// The ISSUE acceptance path: a run with a fail-over produces a Chrome
/// trace with ≥2 coordinator tracks and a chaos-track event, and the
/// timeline samples span the recovery window.
#[test]
fn trace_covers_coordinators_chaos_track_and_recovery_timeline() {
    let cluster = cluster_with_flight(Some(4096));
    let rec = cluster.flight.clone().expect("flight recorder installed");

    let runner = WorkloadRunner::spawn(
        Arc::clone(&cluster),
        Arc::new(Transfers),
        RunnerConfig { coordinators: 3, seed: 11, phase_metrics: true },
    );
    let timeline = runner.timeline_sampler(Duration::from_millis(5));
    let t0 = Instant::now();

    std::thread::sleep(Duration::from_millis(60));
    // Fail one coordinator and recover it through the detector: the
    // trigger lands on the chaos track, the four steps on the failed
    // coordinator's track.
    let victims = runner.crash_first(1);
    assert_eq!(victims.len(), 1);
    let crash_at_ms = t0.elapsed().as_millis() as u64;
    for v in &victims {
        let report = cluster.fd.declare_failed(*v).expect("recovery ran");
        assert!(report.completed);
    }
    std::thread::sleep(Duration::from_millis(40));
    runner.stop_and_join();
    let points = timeline.finish();

    // Timeline spans the recovery window: samples before and after the
    // declared failure, with committed work recorded.
    assert!(!points.is_empty(), "timeline sampler produced no points");
    assert!(points.first().unwrap().at_ms <= crash_at_ms, "no pre-failure samples");
    assert!(points.last().unwrap().at_ms >= crash_at_ms, "no post-failure samples");
    assert!(points.iter().map(|p| p.committed_delta).sum::<u64>() > 0, "no committed work");

    // The trace parses as a Chrome trace-event array; every event
    // carries the loader-required keys.
    let trace = rec.chrome_trace();
    let doc = json::parse(&trace).expect("trace parses");
    let events = doc.as_array().expect("top level array");
    for ev in events {
        for key in ["ph", "ts", "pid", "tid", "name"] {
            assert!(ev.get(key).is_some(), "event missing {key}: {ev:?}");
        }
    }

    // Spans (not just metadata) from at least two coordinator tracks.
    let coord_tracks: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
        .filter_map(|e| e.get("tid").and_then(|v| v.as_u64()))
        .filter(|tid| (10..100_000).contains(tid))
        .collect();
    assert!(
        coord_tracks.len() >= 2,
        "expected spans from ≥2 coordinators, got tracks {coord_tracks:?}"
    );

    // The chaos track carries the recovery trigger instant.
    assert!(
        events.iter().any(|e| {
            e.get("tid").and_then(|v| v.as_u64()) == Some(1)
                && e.get("ph").and_then(|v| v.as_str()) == Some("i")
                && e.get("name").and_then(|v| v.as_str()) == Some("recovery-trigger")
        }),
        "chaos track missing the recovery-trigger instant"
    );

    // The four recovery steps were laid back onto the failed
    // coordinator's track.
    for step in ["detection", "link_termination", "log_recovery", "stray_notification"] {
        assert!(
            events.iter().any(|e| e.get("name").and_then(|v| v.as_str()) == Some(step)),
            "recovery step {step:?} missing from the trace"
        );
    }

    // Commit-path anatomy is present: whole-txn envelopes and phases.
    assert!(
        events.iter().any(|e| e.get("name").and_then(|v| v.as_str()) == Some("txn")),
        "no whole-transaction spans recorded"
    );
}

/// Zero-cost-off: a cluster with a recorder installed but *disabled* is
/// byte-identical on the wire to one with no recorder at all — same
/// fabric verb counters, same final state — and its auto-dump sites (here
/// the recovery trigger) write no file.
#[test]
fn disabled_flight_recorder_is_invisible() {
    let run = |cluster: Arc<SimCluster>| {
        let (mut co, lease) = cluster.coordinator().unwrap();
        for i in 0..200u64 {
            let from = (i * 7) % N_KEYS;
            let to = (from + 1 + (i * 13) % (N_KEYS - 1)) % N_KEYS;
            co.run(|txn| {
                let a = balance(&txn.read(TABLE, from)?.expect("from"));
                let b = balance(&txn.read(TABLE, to)?.expect("to"));
                let amount = 5.min(a).max(0);
                txn.write(TABLE, from, &value(a - amount))?;
                txn.write(TABLE, to, &value(b + amount))
            })
            .unwrap();
        }
        // Retire the coordinator through a recovery: the trigger is an
        // auto-dump site.
        co.injector().crash_now();
        co.gate().mark_dead();
        assert!(cluster.fd.declare_failed(lease.coord_id).expect("recovery ran").completed);
        let finals: Vec<i64> =
            (0..N_KEYS).map(|k| balance(&cluster.peek(TABLE, k).unwrap())).collect();
        (cluster.ctx.fabric.total_counters(), finals)
    };

    let plain = run(cluster_with_flight(None));
    let dumps = std::env::temp_dir().join(format!("pandora-flight-off-{}", std::process::id()));
    let disarmed = {
        let cluster = cluster_with_flight(Some(4096));
        let rec = cluster.flight.as_ref().unwrap();
        rec.set_enabled(false);
        rec.set_dump_dir(&dumps);
        run(cluster)
    };
    assert_eq!(plain.0, disarmed.0, "verb counts diverge with a disabled recorder installed");
    assert_eq!(plain.1, disarmed.1, "final state diverges with a disabled recorder installed");
    // A dump would have created the directory.
    assert!(!dumps.exists(), "a disabled recorder dumped into {}", dumps.display());
}
