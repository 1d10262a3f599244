//! The latency-hiding acceptance gate, as a deterministic test: at a
//! 2 µs modeled RTT, a warm 4-write commit on the fan-out path must run
//! at least 2x faster than the sequential baseline
//! (`pipeline_depth = 1`). Debug builds are skipped — the
//! unoptimized software path costs more than the modeled RTT and the
//! ratio measures the compiler, not the protocol; CI's bench-smoke job
//! runs this in release alongside the criterion ablation.

use std::time::{Duration, Instant};

use dkvs::{TableDef, TableId};
use pandora::{ProtocolKind, SimCluster, SystemConfig};
use rdma_sim::LatencyModel;

const KV: TableId = TableId(0);

/// Mean wall time per warm 4-write transaction under `config`.
fn commit_time(config: SystemConfig) -> Duration {
    let latency = LatencyModel { rtt: Duration::from_micros(2), ns_per_kib: 0 };
    let cluster = SimCluster::builder(ProtocolKind::Pandora)
        .memory_nodes(3)
        .replication(2)
        .capacity_per_node(16 << 20)
        .table(TableDef::sized_for(0, "kv", 40, 4096))
        .max_coord_slots(64)
        .config(config)
        .latency(latency)
        .build()
        .unwrap();
    cluster.bulk_load(KV, (0..2048u64).map(|k| (k, vec![0u8; 40]))).unwrap();
    let (mut co, _lease) = cluster.coordinator().unwrap();
    let run = |co: &mut pandora::Coordinator, base: u64| {
        let mut txn = co.begin();
        for k in base..base + 4 {
            txn.write(KV, k, &[1u8; 40]).unwrap();
        }
        txn.commit().unwrap();
    };
    // Warm the address cache over the whole working set first.
    for base in (0..512u64).step_by(4) {
        run(&mut co, base);
    }
    let iters = 500u32;
    let mut key = 0u64;
    let t0 = Instant::now();
    for _ in 0..iters {
        let base = key % 508;
        key = key.wrapping_add(4);
        run(&mut co, base);
    }
    t0.elapsed() / iters
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate needs an optimized build")]
fn pipelined_commit_at_least_2x_faster_at_2us_rtt() {
    let sequential = commit_time(SystemConfig::new(ProtocolKind::Pandora).with_pipeline_depth(1));
    let pipelined = commit_time(SystemConfig::new(ProtocolKind::Pandora));
    eprintln!("sequential {sequential:?}/txn, pipelined {pipelined:?}/txn");
    assert!(
        sequential >= pipelined * 2,
        "fan-out commit path hides too few round trips: sequential {sequential:?} vs pipelined \
         {pipelined:?} (< 2x)"
    );
}
