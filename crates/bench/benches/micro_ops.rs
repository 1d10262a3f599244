//! Criterion micro-benchmarks for the ablation points DESIGN.md §7
//! calls out:
//!
//! * raw one-sided verb cost on the simulated fabric,
//! * the failed-ids bitset lookup (paper §6.2: "a few nanoseconds"),
//! * lock CAS vs stray-lock steal (the extra CAS of PILL),
//! * log-entry encode/decode,
//! * full commit-path cost per protocol (FORD vs Pandora vs Traditional
//!   — the round-trip count ablation behind Fig. 6/§6.2.1).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use dkvs::{LogEntry, TableDef, TableId, UndoRecord, VersionWord};
use pandora::{FailedIds, ProtocolKind, SimCluster, SystemConfig};
use rdma_sim::{Fabric, FabricConfig, FaultInjector, NodeId};

fn bench_verbs(c: &mut Criterion) {
    let fabric = Fabric::new(FabricConfig::default());
    let ep = fabric.register_endpoint();
    let qp = fabric.qp(ep, NodeId(0), FaultInjector::new()).unwrap();
    let mut buf = vec![0u8; 64];

    c.bench_function("verb/read_64B", |b| b.iter(|| qp.read(black_box(0), &mut buf).unwrap()));
    c.bench_function("verb/write_64B", |b| b.iter(|| qp.write(black_box(64), &buf).unwrap()));
    c.bench_function("verb/cas", |b| b.iter(|| qp.cas(black_box(128), 0, 0).unwrap()));
    c.bench_function("verb/faa", |b| b.iter(|| qp.faa(black_box(136), 1).unwrap()));
}

fn bench_failed_ids(c: &mut Criterion) {
    let ids = FailedIds::new();
    for i in (0..1000).step_by(7) {
        ids.set(i);
    }
    c.bench_function("pill/failed_ids_lookup", |b| {
        b.iter(|| black_box(ids.contains(black_box(4242))))
    });
}

fn bench_log_codec(c: &mut Criterion) {
    let entry = LogEntry {
        txn_id: 99,
        coord: 7,
        writes: (0..4)
            .map(|i| UndoRecord {
                table: TableId(0),
                key: i,
                bucket: i,
                slot: 0,
                old_version: VersionWord::new(3, false),
                new_version: VersionWord::new(4, false),
                old_value: vec![0u8; 40],
            })
            .collect(),
    };
    c.bench_function("log/encode_4_writes", |b| b.iter(|| black_box(entry.encode())));
    let buf = entry.encode();
    c.bench_function("log/decode_4_writes", |b| {
        b.iter(|| black_box(LogEntry::decode(&buf).unwrap()))
    });
}

fn commit_cluster(protocol: ProtocolKind) -> (Arc<SimCluster>, pandora::Coordinator) {
    let cluster = SimCluster::builder(protocol)
        .memory_nodes(3)
        .replication(2)
        .capacity_per_node(16 << 20)
        .table(TableDef::sized_for(0, "kv", 40, 4096))
        .max_coord_slots(64)
        .config(SystemConfig::new(protocol))
        .build()
        .unwrap();
    cluster.bulk_load(TableId(0), (0..2048u64).map(|k| (k, vec![0u8; 40]))).unwrap();
    let (co, _lease) = cluster.coordinator().unwrap();
    (Arc::new(cluster), co)
}

fn bench_commit_paths(c: &mut Criterion) {
    for protocol in [ProtocolKind::Ford, ProtocolKind::Pandora, ProtocolKind::Traditional] {
        let (_cluster, mut co) = commit_cluster(protocol);
        let mut key = 0u64;
        c.bench_function(&format!("commit/4_writes/{protocol:?}"), |b| {
            b.iter(|| {
                let base = key % 512;
                key = key.wrapping_add(4);
                let mut txn = co.begin();
                for k in base..base + 4 {
                    txn.write(TableId(0), k, &[1u8; 40]).unwrap();
                }
                txn.commit().unwrap();
            })
        });
        let (_cluster2, mut co2) = commit_cluster(protocol);
        let mut key2 = 0u64;
        c.bench_function(&format!("commit/readonly_4/{protocol:?}"), |b| {
            b.iter(|| {
                let base = key2 % 512;
                key2 = key2.wrapping_add(4);
                let mut txn = co2.begin();
                for k in base..base + 4 {
                    black_box(txn.read(TableId(0), k).unwrap());
                }
                txn.commit().unwrap();
            })
        });
    }
}

fn bench_lock_steal(c: &mut Criterion) {
    // Compare a plain lock acquisition with a steal (extra CAS) by
    // pre-installing a stray lock each iteration.
    let (cluster, mut co) = commit_cluster(ProtocolKind::Pandora);
    let stray_owner = 999u16;
    cluster.ctx.failed.set(stray_owner);
    let table = TableId(0);
    let ep = cluster.ctx.fabric.register_endpoint();
    let planter = cluster
        .ctx
        .fabric
        .qp(ep, cluster.primary_node(table, 1), FaultInjector::new())
        .unwrap();
    // Find the lock address of key 1 on its primary.
    let def = cluster.ctx.map.table(table).clone();
    let bucket = def.bucket_for(1);
    // Warm: locate the slot through a read.
    co.run(|txn| txn.read(table, 1).map(|_| ())).unwrap();
    let primary = cluster.primary_node(table, 1);
    let (_l, _v, _) = cluster.raw_slot(table, 1, primary).unwrap();
    // Slot 0..n scan to find the exact slot offset for planting.
    let mut lock_addr = None;
    for slot in 0..def.slots_per_bucket {
        let addr = cluster.ctx.map.slot_addr(primary, table, bucket, slot);
        let mut kb = [0u8; 8];
        planter.read(addr, &mut kb).unwrap();
        if u64::from_le_bytes(kb) == dkvs::layout::stored_key(1) {
            lock_addr = Some(addr + dkvs::SlotLayout::LOCK_OFF);
            break;
        }
    }
    let lock_addr = lock_addr.expect("key 1 in home bucket");
    let stray = dkvs::LockWord::pill(stray_owner).raw();

    c.bench_function("pill/write_txn_clean_lock", |b| {
        b.iter(|| co.run(|txn| txn.write(table, 1, &[2u8; 40])).unwrap())
    });
    c.bench_function("pill/write_txn_stealing_stray", |b| {
        b.iter(|| {
            planter.write_u64(lock_addr, stray).unwrap();
            co.run(|txn| txn.write(table, 1, &[3u8; 40])).unwrap()
        })
    });
}

fn bench_pipeline_fanout(c: &mut Criterion) {
    // Latency-hiding ablation (ISSUE 9 acceptance gate): the fan-out
    // commit path posts every phase's verbs up front and takes one
    // completion barrier per phase, so a 4-write commit costs a handful
    // of round trips instead of ~20 sequential ones. At rtt = 2 µs the
    // pipelined configuration must land >= 2x below the sequential
    // baseline (`pipeline_depth = 1`, every verb blocking).
    let latency =
        rdma_sim::LatencyModel { rtt: std::time::Duration::from_micros(2), ns_per_kib: 0 };
    for pipelined in [false, true] {
        let mut config = SystemConfig::new(ProtocolKind::Pandora);
        if !pipelined {
            config = config.with_pipeline_depth(1);
        }
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
        cluster.bulk_load(TableId(0), (0..2048u64).map(|k| (k, vec![0u8; 40]))).unwrap();
        let (mut co, _lease) = cluster.coordinator().unwrap();
        // Warm the address cache over the whole working set so both
        // configurations measure steady state, not first-touch probes.
        for base in (0..512u64).step_by(4) {
            let mut txn = co.begin();
            for k in base..base + 4 {
                txn.write(TableId(0), k, &[1u8; 40]).unwrap();
            }
            txn.commit().unwrap();
        }
        let mut key = 0u64;
        let label = if pipelined { "pipelined" } else { "sequential" };
        c.bench_function(&format!("pipeline/commit_4_writes/{label}"), |b| {
            b.iter(|| {
                let base = key % 512;
                key = key.wrapping_add(4);
                let mut txn = co.begin();
                for k in base..base + 4 {
                    txn.write(TableId(0), k, &[1u8; 40]).unwrap();
                }
                txn.commit().unwrap();
            })
        });
    }
}

fn bench_interleave(c: &mut Criterion) {
    // Throughput ablation (ISSUE 10 acceptance gate): one coordinator
    // keeping `inflight_txns` slot transactions in flight over a striped
    // fabric, vs the same request stream drained one commit at a time.
    // Benchmarked per *batch* of 16 requests so both shapes amortize the
    // same queue-management overhead; the interleaved row must land well
    // below half the width-1 row at rtt = 2 µs.
    use pandora::TxnRequest;
    let latency =
        rdma_sim::LatencyModel { rtt: std::time::Duration::from_micros(2), ns_per_kib: 0 };
    for (label, config) in [
        ("width1", SystemConfig::new(ProtocolKind::Pandora)),
        (
            "inflight8_stripes4",
            SystemConfig::new(ProtocolKind::Pandora)
                .with_inflight_txns(8)
                .with_qp_stripes(4),
        ),
    ] {
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
        cluster.bulk_load(TableId(0), (0..2048u64).map(|k| (k, vec![0u8; 40]))).unwrap();
        let (mut co, _lease) = cluster.coordinator().unwrap();
        let request = |base: u64| {
            let mut req = TxnRequest::new();
            for k in base..base + 4 {
                req = req.write(TableId(0), k, vec![1u8; 40]);
            }
            req
        };
        // Warm the address cache over the whole working set.
        for base in (0..512u64).step_by(4) {
            let r = co.run_interleaved(&[request(base)]);
            assert!(r.into_iter().all(|x| x.is_ok()));
        }
        let mut round = 0u64;
        c.bench_function(&format!("interleave/batch16_of_4_writes/{label}"), |b| {
            b.iter(|| {
                let reqs: Vec<TxnRequest> =
                    (0..16u64).map(|i| request(((round * 16 + i) * 4) % 512)).collect();
                round = round.wrapping_add(1);
                co.run_interleaved_retrying(&reqs).unwrap();
            })
        });
    }
}

fn bench_persistence_modes(c: &mut Criterion) {
    // Ablation: commit cost per durability setting (paper §7).
    // VolatileReplicated and BatteryBackedDram share a data path; NvmFlush
    // adds one flush verb per memory node touched by logging + commit.
    // A spin-scale per-verb latency makes the extra round trips visible.
    use pandora::config::PersistenceMode;
    let latency =
        rdma_sim::LatencyModel { rtt: std::time::Duration::from_micros(3), ns_per_kib: 0 };
    for mode in [
        PersistenceMode::VolatileReplicated,
        PersistenceMode::BatteryBackedDram,
        PersistenceMode::NvmFlush,
    ] {
        let cluster = SimCluster::builder(ProtocolKind::Pandora)
            .memory_nodes(3)
            .replication(2)
            .capacity_per_node(16 << 20)
            .table(TableDef::sized_for(0, "kv", 40, 4096))
            .max_coord_slots(64)
            .config(SystemConfig::new(ProtocolKind::Pandora).with_persistence(mode))
            .latency(latency)
            .build()
            .unwrap();
        cluster.bulk_load(TableId(0), (0..2048u64).map(|k| (k, vec![0u8; 40]))).unwrap();
        let (mut co, _lease) = cluster.coordinator().unwrap();
        let mut key = 0u64;
        c.bench_function(&format!("persistence/commit_4_writes/{mode:?}"), |b| {
            b.iter(|| {
                let base = key % 512;
                key = key.wrapping_add(4);
                let mut txn = co.begin();
                for k in base..base + 4 {
                    txn.write(TableId(0), k, &[1u8; 40]).unwrap();
                }
                txn.commit().unwrap();
            })
        });
    }
}

criterion_group! {
    name = benches;
    // Short windows: single-core host, and the comparisons of interest
    // (round-trip counts) are far above measurement noise.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(30);
    targets = bench_verbs,
        bench_failed_ids,
        bench_log_codec,
        bench_commit_paths,
        bench_lock_steal,
        bench_pipeline_fanout,
        bench_interleave,
        bench_persistence_modes
}
criterion_main!(benches);
