//! Memory-server failure handling (paper §3.2.5): backup promotion,
//! brief stop-the-world reconfiguration, re-replication.

mod common;

use common::{cluster_with_keys, value_for, KV};
use pandora::{MemoryFailureHandler, ProtocolKind};
use rdma_sim::NodeId;

#[test]
fn backup_promotion_keeps_data_available() {
    let cluster = cluster_with_keys(ProtocolKind::Pandora, 64);
    let handler = MemoryFailureHandler::new(std::sync::Arc::clone(&cluster.ctx)).unwrap();

    // Find a key whose primary is node 0.
    let victim = NodeId(0);
    let key = (0..64u64)
        .find(|&k| cluster.primary_node(KV, k) == victim)
        .expect("some key has node 0 as primary");

    cluster.ctx.fabric.kill_node(victim).unwrap();
    let report = handler.handle_failure(victim);
    assert!(report.promoted_buckets > 0, "some buckets must promote");
    assert_eq!(report.lost_buckets, 0, "f+1=2 replicas tolerate one failure");

    // The key is still readable (from the promoted backup) and writable.
    assert_eq!(cluster.peek(KV, key), Some(value_for(key, 0)));
    let new_primary = cluster.primary_node(KV, key);
    assert_ne!(new_primary, victim);

    let (mut co, _lease) = cluster.coordinator().unwrap();
    co.run(|txn| txn.write(KV, key, &value_for(key, 1))).unwrap();
    assert_eq!(cluster.peek(KV, key), Some(value_for(key, 1)));
}

#[test]
fn all_keys_survive_one_memory_failure() {
    let cluster = cluster_with_keys(ProtocolKind::Pandora, 128);
    let handler = MemoryFailureHandler::new(std::sync::Arc::clone(&cluster.ctx)).unwrap();
    cluster.ctx.fabric.kill_node(NodeId(1)).unwrap();
    handler.handle_failure(NodeId(1));
    for k in 0..128u64 {
        assert_eq!(cluster.peek(KV, k), Some(value_for(k, 0)), "key {k} lost");
    }
}

#[test]
fn writes_during_memory_failure_eventually_succeed() {
    let cluster = std::sync::Arc::new(cluster_with_keys(ProtocolKind::Pandora, 64));
    let handler = MemoryFailureHandler::new(std::sync::Arc::clone(&cluster.ctx)).unwrap();

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let worker = {
        let cluster = std::sync::Arc::clone(&cluster);
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let (mut co, _lease) = cluster.coordinator().unwrap();
            let mut committed = 0u64;
            let mut failures = 0u64;
            let mut k = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                k = (k + 1) % 64;
                match co.run(|txn| txn.write(KV, k, &value_for(k, 1))) {
                    Ok(_) => committed += 1,
                    Err(_) => failures += 1, // NodeDead races before the pause
                }
            }
            (committed, failures)
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(20));
    cluster.ctx.fabric.kill_node(NodeId(2)).unwrap();
    handler.handle_failure(NodeId(2));
    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, std::sync::atomic::Ordering::Release);
    let (committed, _failures) = worker.join().unwrap();
    assert!(committed > 0);

    // After reconfiguration every key is writable again.
    let (mut co, _lease) = cluster.coordinator().unwrap();
    for k in 0..64u64 {
        co.run(|txn| txn.write(KV, k, &value_for(k, 2))).unwrap();
    }
}

#[test]
fn rereplication_rebuilds_a_revived_node() {
    let cluster = cluster_with_keys(ProtocolKind::Pandora, 64);
    let handler = MemoryFailureHandler::new(std::sync::Arc::clone(&cluster.ctx)).unwrap();
    let victim = NodeId(0);

    cluster.ctx.fabric.kill_node(victim).unwrap();
    handler.handle_failure(victim);

    // Write new generations while the node is down.
    let (mut co, _lease) = cluster.coordinator().unwrap();
    for k in 0..64u64 {
        co.run(|txn| txn.write(KV, k, &value_for(k, 3))).unwrap();
    }

    // Revive as a blank replacement? No — contents survive in this model,
    // but they are STALE. Re-replication must overwrite with fresh data.
    cluster.ctx.fabric.revive_node(victim).unwrap();
    let copied = handler.rereplicate(victim).unwrap();
    assert!(copied > 0);
    assert!(!cluster.ctx.is_node_dead(victim));

    // The revived node serves consistent data for keys it hosts.
    for k in 0..64u64 {
        if cluster.replica_nodes(KV, k).contains(&victim) {
            let (_, _, value) = cluster.raw_slot(KV, k, victim).expect("rehydrated");
            assert_eq!(&value[..16], value_for(k, 3).as_slice(), "stale key {k}");
        }
        assert_eq!(cluster.peek(KV, k), Some(value_for(k, 3)));
    }
}

#[test]
fn a_connected_coordinator_follows_the_membership_at_once() {
    // The dead-node set is read afresh by every `primary_of`: a
    // coordinator that connected long before a change sees it on its
    // next call, and its next commit already goes by it.
    let cluster = cluster_with_keys(ProtocolKind::Pandora, 64);
    let handler = MemoryFailureHandler::new(std::sync::Arc::clone(&cluster.ctx)).unwrap();
    let (mut co, _lease) = cluster.coordinator().unwrap();
    let key = 7u64;
    let bucket = cluster.ctx.map.table(KV).bucket_for(key);
    let replicas = cluster.replica_nodes(KV, key);
    let (original, backup) = (replicas[0], replicas[1]);
    let stored = |node: NodeId| {
        let (lock, _, value) = cluster.raw_slot(KV, key, node).expect("slot present");
        assert!(!lock.is_locked(), "residual lock on {node:?}");
        common::generation_of(&value)
    };

    assert_eq!(co.primary_of(KV, bucket).unwrap(), original);
    co.run(|txn| txn.write(KV, key, &value_for(key, 1))).unwrap();
    assert_eq!((stored(original), stored(backup)), (1, 1));

    // The node stays reachable on the fabric, so a commit that still
    // went to it would show.
    cluster.ctx.mark_node_dead(original);
    assert_eq!(co.primary_of(KV, bucket).unwrap(), backup, "first call after the change");
    co.run(|txn| txn.write(KV, key, &value_for(key, 2))).unwrap();
    assert_eq!(stored(backup), 2);
    assert_eq!(stored(original), 1, "a commit applied to a node the context calls dead");

    // Re-replication ends in `mark_node_live`.
    handler.rereplicate(original).unwrap();
    assert_eq!(co.primary_of(KV, bucket).unwrap(), original, "first call after revival");
    co.run(|txn| txn.write(KV, key, &value_for(key, 3))).unwrap();
    assert_eq!((stored(original), stored(backup)), (3, 3));

    // More than f failures: no acting primary, and the error says so.
    cluster.ctx.mark_node_dead(original);
    cluster.ctx.mark_node_dead(backup);
    assert_eq!(
        co.primary_of(KV, bucket),
        Err(pandora::TxnError::Aborted(pandora::AbortReason::MemoryFailure))
    );
}

#[test]
fn losing_all_replicas_reports_lost_buckets() {
    let cluster = cluster_with_keys(ProtocolKind::Pandora, 64);
    let handler = MemoryFailureHandler::new(std::sync::Arc::clone(&cluster.ctx)).unwrap();
    cluster.ctx.fabric.kill_node(NodeId(0)).unwrap();
    let r0 = handler.handle_failure(NodeId(0));
    assert_eq!(r0.lost_buckets, 0);
    cluster.ctx.fabric.kill_node(NodeId(1)).unwrap();
    let r1 = handler.handle_failure(NodeId(1));
    // With 3 nodes and f+1=2, some buckets lived on {0,1} only.
    assert!(r1.lost_buckets > 0, "two failures must exceed f for some buckets");
}
