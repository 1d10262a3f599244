//! What a transaction whose keys are known up front costs, exactly.
//!
//! `Txn::fetch` posts the whole execute phase — a full-slot READ per
//! read-only key, a lock CAS with the under-lock READ behind it per
//! read-write key — and takes one completion barrier, so a warm
//! transaction is three barriers to its caller: execute, log, apply (a
//! write transaction's validate phase has nothing to read, and the
//! unlocks are posted and left with the coordinator — their effect is
//! immediate, their completions are collected behind the next
//! transaction's execute barrier). Verb counts and barrier counts are
//! deterministic for a given transaction; the counts are asserted on
//! every run, the wall-clock half (barriers × a 1 ms modeled round trip)
//! is given three tries, for a host that takes the core away
//! mid-transaction. A cold key resolves
//! first, so a cold transaction is the serial ladder — bucket READ, lock
//! CAS, under-lock READ per key, in key order — verb for verb what
//! read-then-write issued before `fetch` existed.

use std::time::{Duration, Instant};

use dkvs::{TableDef, TableId};
use pandora::{Access, Coordinator, FlightTrack, Payload, ProtocolKind, SimCluster, SystemConfig};
use pandora_workloads::micro::MICRO_TABLE;
use pandora_workloads::smallbank::{CHECKING, SAVINGS};
use pandora_workloads::{with_tables, MicroBench, SmallBank, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rdma_sim::{LatencyModel, NodeId};

const RTT: Duration = Duration::from_millis(1);
/// Execute, log, apply.
const WARM_BARRIERS: u32 = 3;

/// Three memory nodes, replication 2 (f+1 = 2 log copies), loaded.
fn build(workload: &dyn Workload, rtt: Duration, flight: bool) -> SimCluster {
    build_with(workload, rtt, flight, SystemConfig::new(ProtocolKind::Pandora))
}

fn build_with(
    workload: &dyn Workload,
    rtt: Duration,
    flight: bool,
    config: SystemConfig,
) -> SimCluster {
    let mut b = with_tables(
        SimCluster::builder(ProtocolKind::Pandora)
            .memory_nodes(3)
            .replication(2)
            .capacity_per_node(16 << 20)
            .max_coord_slots(16)
            .latency(LatencyModel { rtt, ns_per_kib: 0 })
            .config(config),
        workload,
    );
    if flight {
        b = b.flight(4096);
    }
    let cluster = b.build().unwrap();
    workload.load(&cluster);
    cluster
}

/// Teach `co` the slot of every key in `keys` of `tables`.
fn warm(co: &mut Coordinator, tables: &[TableId], keys: std::ops::Range<u64>) {
    for &table in tables {
        co.run(|txn| txn.read_range(table, keys.clone()).map(drop)).unwrap();
    }
}

/// Fabric-wide (CAS, READ, WRITE) counts of `f`, and how long it took.
fn counted(cluster: &SimCluster, f: impl FnOnce()) -> ((u64, u64, u64), Duration) {
    let before = cluster.ctx.fabric.total_counters();
    let t0 = Instant::now();
    f();
    let took = t0.elapsed();
    let after = cluster.ctx.fabric.total_counters();
    let delta = (after.cas - before.cas, after.reads - before.reads, after.writes - before.writes);
    (delta, took)
}

/// `took` is `WARM_BARRIERS` round trips and change: never fewer (a
/// barrier cannot beat the round trip), under four and a half on a quiet
/// host.
fn three_round_trips(took: Duration) -> bool {
    assert!(took >= RTT * WARM_BARRIERS, "{took:?} beats {WARM_BARRIERS} round trips");
    took < RTT * 9 / 2
}

/// Verbs posted and not yet collected, fabric-wide.
fn in_flight(cluster: &SimCluster) -> u64 {
    cluster.ctx.fabric.verb_stats().verbs_in_flight
}

/// No key of the 64-key micro table is locked at its primary.
fn unlocked(cluster: &SimCluster) -> bool {
    (0..64).all(|k| {
        let primary = cluster.primary_node(MICRO_TABLE, k);
        !cluster.raw_slot(MICRO_TABLE, k, primary).unwrap().0.is_locked()
    })
}

#[test]
fn a_warm_four_rmw_transaction_is_thirty_verbs_in_three_barriers() {
    let bench = MicroBench::new(64, 1.0);
    let cluster = build(&bench, RTT, false);
    let (mut co, _lease) = cluster.coordinator().unwrap();
    warm(&mut co, &[MICRO_TABLE], 0..64);
    let mut rng = StdRng::seed_from_u64(21);
    let mut took = Vec::new();
    for _ in 0..3 {
        let (verbs, t) = counted(&cluster, || bench.execute(&mut co, &mut rng).unwrap());
        // 4 lock CASes, 4 under-lock READs; 2 log copies, value and
        // version on both replicas of 4 keys, 4 unlocks.
        assert_eq!(verbs, (4, 4, 22), "CAS / READ / WRITE of a warm 4-RMW transaction");
        // The unlocks landed as they posted; only their completions are
        // still out.
        assert_eq!(in_flight(&cluster), 4, "four unlock completions ride the next execute");
        assert!(unlocked(&cluster), "a key still locked when commit returned");
        took.push(t);
        if three_round_trips(t) {
            return;
        }
    }
    panic!("a warm 4-RMW transaction took {took:?} at a {RTT:?} round trip");
}

#[test]
fn a_warm_amalgamate_locks_and_reads_three_rows_in_one_round_trip() {
    let bank = SmallBank::new(16);
    let cluster = build(&bank, RTT, false);
    let (mut co, _lease) = cluster.coordinator().unwrap();
    warm(&mut co, &[SAVINGS, CHECKING], 0..16);
    let emptied = |cluster: &SimCluster| {
        (0..16).filter(|&a| cluster.peek(SAVINGS, a).unwrap()[..8] == [0u8; 8]).count()
    };
    let mut rng = StdRng::seed_from_u64(22);
    let (mut seen, mut took) = (0, Vec::new());
    // 15 % of the mix; only Amalgamate zeroes a savings balance.
    for _ in 0..400 {
        let before = emptied(&cluster);
        let (verbs, t) = counted(&cluster, || bank.execute(&mut co, &mut rng).unwrap());
        if emptied(&cluster) == before {
            continue;
        }
        // 3 lock CASes, 3 under-lock READs; 2 log copies, 12 apply
        // writes, 3 unlocks.
        assert_eq!(verbs, (3, 3, 17), "CAS / READ / WRITE of a warm Amalgamate");
        took.push(t);
        seen += 1;
        if three_round_trips(t) {
            return;
        }
        if seen == 3 {
            break;
        }
    }
    panic!("{seen} Amalgamates took {took:?} at a {RTT:?} round trip");
}

/// The data-path verbs `endpoint` posted, in post order: name, memory
/// node, bytes.
fn verbs_of(cluster: &SimCluster, endpoint: u32) -> Vec<(&'static str, u16, u64)> {
    let mut spans = cluster.ctx.flight().expect("recorder installed").snapshot();
    spans.sort_by_key(|s| (s.start_ns, s.seq));
    spans
        .iter()
        .filter_map(|s| match (s.track, s.payload) {
            (FlightTrack::MemoryNode(n), Payload::Verb { bytes, endpoint: e }) if e == endpoint => {
                Some((s.name, n, bytes))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn a_cold_micro_transaction_resolves_locks_and_reads_key_by_key() {
    // Four hot keys, four distinct keys per transaction: keys 0..4.
    let bench = MicroBench::new(64, 1.0).with_hot_keys(4);
    let cluster = build(&bench, Duration::ZERO, true);
    let (mut co, _lease) = cluster.coordinator().unwrap();
    let mut rng = StdRng::seed_from_u64(23);
    let (verbs, _) = counted(&cluster, || bench.execute(&mut co, &mut rng).unwrap());
    assert_eq!(verbs, (4, 8, 22), "a cold key costs its bucket READ");

    let def = &bench.tables()[0];
    let (bucket, slot) = (def.bucket_bytes(), def.layout().slot_bytes());
    let expected: Vec<_> = (0..4u64)
        .flat_map(|k| {
            let NodeId(primary) = cluster.replica_nodes(MICRO_TABLE, k)[0];
            [("READ", primary, bucket), ("CAS", primary, 8), ("READ", primary, slot)]
        })
        .collect();
    // A verb's span fires when its completion is delivered: the four
    // unlocks' are with the coordinator until something reaps it.
    let endpoint = co.endpoint().0;
    assert_eq!(verbs_of(&cluster, endpoint).len(), 12 + 18);
    drop(co);
    let posted = verbs_of(&cluster, endpoint);
    assert_eq!(posted.len(), 12 + 22, "execute verbs, then the commit's writes");
    assert_eq!(posted[..12], expected[..], "the execute phase of a cold transaction");
    assert!(posted[12..].iter().all(|&(name, _, _)| name == "WRITE"));
}

#[test]
fn unlock_completions_are_parked_only_where_verbs_post() {
    let bench = MicroBench::new(64, 1.0);
    for (depth, slots, pill, parked) in
        [(16, 1, true, 4), (1, 1, true, 0), (16, 8, true, 4), (16, 1, false, 0)]
    {
        let mut config = SystemConfig::new(ProtocolKind::Pandora)
            .with_pipeline_depth(depth)
            .with_inflight_txns(slots);
        // An anonymous lock word names no owner to check a late
        // re-release against: its unlock is waited for, as it was.
        config.pill_enabled = pill;
        let cluster = build_with(&bench, Duration::ZERO, false, config);
        let (mut co, _lease) = cluster.coordinator().unwrap();
        warm(&mut co, &[MICRO_TABLE], 0..64);
        let mut rng = StdRng::seed_from_u64(24);
        bench.execute(&mut co, &mut rng).unwrap();
        assert_eq!(in_flight(&cluster), parked, "after a commit at depth {depth}");
        assert!(unlocked(&cluster), "depth {depth}: a lock outlived its commit");
        // The next transaction's execute barrier collects them, and
        // parks its own.
        bench.execute(&mut co, &mut rng).unwrap();
        assert_eq!(in_flight(&cluster), parked, "after the next commit at depth {depth}");
        // So does whatever else uses the lanes next: the scheduler (its
        // slots poll their own unlocks out; at one slot it is the
        // blocking driver again), a drop.
        let reqs: Vec<_> = (0..4).map(|_| bench.request(&mut rng).unwrap()).collect();
        co.run_interleaved_retrying(&reqs).unwrap();
        assert_eq!(in_flight(&cluster), if slots > 1 { 0 } else { parked });
        bench.execute(&mut co, &mut rng).unwrap();
        drop(co);
        assert_eq!(in_flight(&cluster), 0, "a coordinator dropped after its commit, depth {depth}");
        assert!(unlocked(&cluster));
    }
}

const KV: TableId = TableId(0);

fn kv_value(x: u64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[..8].copy_from_slice(&x.to_le_bytes());
    v
}

/// 256 loaded keys of a 16-byte table on three nodes at the default
/// depth: a lane window of 16 verbs, one lane a node.
fn kv_cluster(rtt: Duration) -> SimCluster {
    let config = SystemConfig::new(ProtocolKind::Pandora);
    assert_eq!((config.pipeline_depth, config.qp_stripes), (16, 1));
    let cluster = SimCluster::builder(ProtocolKind::Pandora)
        .memory_nodes(3)
        .replication(2)
        .capacity_per_node(16 << 20)
        .table(TableDef::sized_for(0, "kv", 16, 512))
        .max_coord_slots(16)
        .latency(LatencyModel { rtt, ns_per_kib: 0 })
        .config(config)
        .build()
        .unwrap();
    cluster.bulk_load(KV, (0..256).map(|k| (k, kv_value(k)))).unwrap();
    cluster
}

/// The first `n` keys whose replicas, primary first, start with `nodes`.
fn keys_on(cluster: &SimCluster, nodes: &[NodeId], n: usize) -> Vec<u64> {
    let keys: Vec<u64> = (0..256)
        .filter(|&k| cluster.replica_nodes(KV, k).starts_with(nodes))
        .take(n)
        .collect();
    assert_eq!(keys.len(), n, "256 keys over 3 nodes");
    keys
}

/// Lock, read and rewrite `keys` in one transaction.
fn rewrite(co: &mut Coordinator, keys: &[u64]) {
    let rows: Vec<_> = keys.iter().map(|&k| (KV, k, Access::ForUpdate)).collect();
    let mut txn = co.begin();
    let values = txn.fetch(&rows).unwrap();
    for (&k, v) in keys.iter().zip(values) {
        assert_eq!(v.map(|v| v[8..].to_vec()), Some(vec![0u8; 8]), "key {k} under its lock");
        txn.write(KV, k, &kv_value(k + 1000)).unwrap();
    }
    txn.commit().unwrap();
}

#[test]
fn a_phase_wider_than_the_lane_window_is_a_barrier_per_windowful() {
    // A TPC-C NewOrder's worth: 24 entries, eight with their primary on
    // each node. Execute fills each lane's window exactly (8 × CAS +
    // READ), the unlocks half of it; every node also backs up eight, so
    // the apply phase is 16 items a lane, two WRITEs each — two
    // windowfuls: execute, log, apply, apply.
    const BARRIERS: u32 = 4;
    let cluster = kv_cluster(RTT);
    let keys: Vec<u64> = (0..3)
        .flat_map(|n| keys_on(&cluster, &[NodeId(n), NodeId((n + 1) % 3)], 8))
        .collect();
    let (mut co, _lease) = cluster.coordinator().unwrap();
    warm(&mut co, &[KV], 0..256);
    let mut took = Vec::new();
    for round in 0..3 {
        if round > 0 {
            cluster.bulk_load(KV, keys.iter().map(|&k| (k, kv_value(k)))).unwrap();
        }
        let (verbs, t) = counted(&cluster, || rewrite(&mut co, &keys));
        // 2 log copies, value and version on 48 replicas, 24 unlocks.
        assert_eq!(verbs, (24, 24, 2 + 96 + 24));
        assert_eq!(in_flight(&cluster), 24, "the unlocks fit their windows and are parked");
        assert!(t >= RTT * BARRIERS, "{t:?} beats {BARRIERS} round trips");
        took.push(t);
        // The blocking ladder would be two round trips for each of the
        // 24 items the first windowful leaves behind.
        if t < RTT * (2 * BARRIERS + 3) / 2 {
            return;
        }
    }
    panic!("a 24-entry transaction took {took:?} at a {RTT:?} round trip");
}

#[test]
fn a_fetch_longer_than_the_lane_window_still_commits() {
    let cluster = kv_cluster(Duration::ZERO);
    // Seventeen keys on one primary: their lock CAS + READ pairs route
    // to one lane, whose window of 16 holds eight rows' worth, and not
    // all seventeen unlocks.
    let node = cluster.replica_nodes(KV, 0)[0];
    let keys = keys_on(&cluster, &[node], 19);
    let (first, keys) = keys.split_at(2);
    let (mut co, _lease) = cluster.coordinator().unwrap();
    warm(&mut co, &[KV], 0..256);
    // Two unlock completions parked on that lane: the eighth row finds
    // them filling the window, collects them and posts all the same.
    rewrite(&mut co, first);
    assert_eq!(in_flight(&cluster), 2);

    let (verbs, _) = counted(&cluster, || rewrite(&mut co, keys));
    // The nine overflow rows take the ladder — lock CAS and under-lock
    // READ on the lane the barrier has emptied — at no extra verb.
    assert_eq!(verbs, (17, 17, 2 + 68 + 17), "one CAS, one READ, one unlock per row");
    // Unlocks in two waves have their barriers taken: nothing is parked.
    assert_eq!(in_flight(&cluster), 0);
    for &k in keys {
        assert_eq!(cluster.peek(KV, k), Some(kv_value(k + 1000)));
        let (lock, _, _) = cluster.raw_slot(KV, k, node).unwrap();
        assert!(!lock.is_locked(), "residual lock on key {k}");
    }
}
