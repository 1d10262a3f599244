//! Compute-server-granularity failures: many coordinators behind one
//! endpoint die together, are fenced by one active-link termination, and
//! are recovered individually (paper Table 2's "coordinators per node").

mod common;

use std::sync::Arc;

use common::{cluster_with_keys, value_for, KV};
use pandora::{ComputeNode, MemoryFailureHandler, ProtocolKind, SimCluster, TxnError};
use rdma_sim::{EndpointId, FaultInjector, NodeId, RdmaError};

/// A crashed server of `n` idle coordinators; returns their ids.
fn crashed_server(cluster: &SimCluster, n: usize) -> (ComputeNode, Vec<u16>) {
    let mut server = ComputeNode::new(Arc::clone(&cluster.ctx), Arc::clone(&cluster.fd));
    for _ in 0..n {
        let (co, _lease) = server.spawn_coordinator().unwrap();
        co.gate().mark_dead();
    }
    server.crash();
    let ids = server.coordinator_ids();
    (server, ids)
}

#[test]
fn whole_server_crash_kills_every_coordinator() {
    let cluster = cluster_with_keys(ProtocolKind::Pandora, 64);
    let mut node =
        ComputeNode::new(std::sync::Arc::clone(&cluster.ctx), std::sync::Arc::clone(&cluster.fd));
    let mut coordinators = Vec::new();
    for _ in 0..4 {
        let (co, _lease) = node.spawn_coordinator().unwrap();
        coordinators.push(co);
    }
    // Each coordinator transacts fine before the crash.
    for (i, co) in coordinators.iter_mut().enumerate() {
        co.run(|txn| txn.write(KV, i as u64, &value_for(i as u64, 1))).unwrap();
    }
    node.crash();
    for co in coordinators.iter_mut() {
        {
            let mut txn = co.begin();
            let err = txn.write(KV, 20, &value_for(20, 2)).unwrap_err();
            assert_eq!(err, TxnError::Crashed, "shared injector must stop every coordinator");
        }
        co.gate().mark_dead();
    }
}

#[test]
fn server_failure_recovers_all_hosted_coordinators() {
    let cluster = cluster_with_keys(ProtocolKind::Pandora, 64);
    let mut node =
        ComputeNode::new(std::sync::Arc::clone(&cluster.ctx), std::sync::Arc::clone(&cluster.fd));

    // Four coordinators, each frozen mid-transaction holding a lock.
    let mut held_keys = Vec::new();
    for i in 0..4u64 {
        let (mut co, _lease) = node.spawn_coordinator().unwrap();
        let mut txn = co.begin();
        txn.write(KV, 10 + i, &value_for(10 + i, 1)).unwrap(); // lock held
        std::mem::forget(txn); // the server will crash with the txn open
        std::mem::forget(co);
        held_keys.push(10 + i);
    }
    node.crash();

    let reports = node.recover_all();
    assert_eq!(reports.len(), 4);
    assert!(reports.iter().all(|r| r.completed));

    // All four coordinator ids are published; their stray locks are
    // stealable; every held key is writable again.
    for id in node.coordinator_ids() {
        assert!(cluster.ctx.failed.contains(id));
    }
    let (mut co2, _l2) = cluster.coordinator().unwrap();
    for key in held_keys {
        co2.run(|txn| txn.write(KV, key, &value_for(key, 7))).unwrap();
        assert_eq!(cluster.peek(KV, key), Some(value_for(key, 7)));
    }
    assert_eq!(co2.stats.locks_stolen, 4, "each stray lock is stolen once");
}

#[test]
fn one_link_termination_fences_the_whole_server() {
    let cluster = cluster_with_keys(ProtocolKind::Pandora, 64);
    let mut node =
        ComputeNode::new(std::sync::Arc::clone(&cluster.ctx), std::sync::Arc::clone(&cluster.fd));
    let (mut co_a, lease_a) = node.spawn_coordinator().unwrap();
    let (mut co_b, lease_b) = node.spawn_coordinator().unwrap();

    // Only coordinator A is declared failed, but revocation is
    // endpoint-granular: the whole (suspected) server is fenced.
    let report = cluster.fd.declare_failed(lease_a.coord_id).unwrap();
    assert_eq!(report.link_fanouts, 1);
    let mut txn = co_b.begin();
    let err = txn.write(KV, 5, &value_for(5, 1)).unwrap_err();
    assert_eq!(
        err,
        TxnError::Rdma(rdma_sim::RdmaError::AccessRevoked),
        "all coordinators of the fenced server lose access"
    );
    drop(txn);
    let mut txn = co_a.begin();
    let err = txn.write(KV, 6, &value_for(6, 1)).unwrap_err();
    assert_eq!(err, TxnError::Rdma(rdma_sim::RdmaError::AccessRevoked));
    drop(txn);

    // Recovering B finds the server fenced on every memory node and
    // sends no second fan-out; the fence of course still stands.
    let report = cluster.fd.declare_failed(lease_b.coord_id).unwrap();
    assert!(report.completed);
    assert_eq!(report.link_fanouts, 0, "one termination per server, not per coordinator-id");
    let mut txn = co_b.begin();
    let err = txn.write(KV, 5, &value_for(5, 1)).unwrap_err();
    assert_eq!(err, TxnError::Rdma(rdma_sim::RdmaError::AccessRevoked));
}

/// A termination is remembered only if *every* memory node of the fabric
/// acknowledged it. With one node down the server's next coordinator-id
/// terminates again — and that is what fences the node once it is back,
/// admission table as it left it, never having heard of the revocation.
#[test]
fn a_termination_a_memory_node_missed_is_not_remembered() {
    let cluster = cluster_with_keys(ProtocolKind::Pandora, 64);
    let (server, ids) = crashed_server(&cluster, 4);
    let fanouts = |id: u16| {
        let report = cluster.fd.declare_failed(id).expect("recovery runs");
        assert!(report.completed);
        report.link_fanouts
    };

    let down = NodeId(2);
    cluster.ctx.fabric.kill_node(down).unwrap();
    MemoryFailureHandler::new(Arc::clone(&cluster.ctx))
        .unwrap()
        .handle_failure(down);
    assert_eq!(fanouts(ids[0]), 1);
    assert_eq!(fanouts(ids[1]), 1, "two acks of three: the second id must terminate again");

    cluster.ctx.fabric.revive_node(down).unwrap();
    let probe = cluster.ctx.fabric.qp(server.endpoint(), down, FaultInjector::new()).unwrap();
    assert!(probe.read_u64(0).is_ok(), "the revived node still admits the endpoint");
    assert_eq!(fanouts(ids[2]), 1);
    assert_eq!(probe.read_u64(0), Err(RdmaError::AccessRevoked), "now it refuses it");
    assert_eq!(fanouts(ids[3]), 0, "three acks of three: remembered");
}

/// The stop-the-world schemes recover a batch in one run; coordinators
/// of one server share one fan-out there too.
#[test]
fn blocking_schemes_terminate_each_server_of_a_batch_once() {
    for protocol in [ProtocolKind::Ford, ProtocolKind::Traditional] {
        let cluster = cluster_with_keys(protocol, 64);
        let (big, big_ids) = crashed_server(&cluster, 4);
        let (small, small_ids) = crashed_server(&cluster, 2);
        let batch = |server: &ComputeNode, ids: &[u16]| -> Vec<(u16, EndpointId)> {
            ids.iter().map(|&id| (id, server.endpoint())).collect()
        };
        let rc = cluster.fd.recovery();
        let recover = |failed: &[(u16, EndpointId)]| match protocol {
            ProtocolKind::Ford => rc.recover_baseline(failed),
            _ => rc.recover_traditional(failed),
        };
        let report = recover(&batch(&big, &big_ids));
        assert!(report.completed, "{protocol:?}");
        assert_eq!(report.link_fanouts, 1, "{protocol:?}: four ids, one server");
        let probe = cluster.ctx.fabric.qp(big.endpoint(), NodeId(0), FaultInjector::new()).unwrap();
        assert_eq!(probe.read_u64(0), Err(RdmaError::AccessRevoked), "{protocol:?}");

        // A second batch mixing both servers pays for the new one only.
        let mut mixed = batch(&small, &small_ids);
        mixed.extend(batch(&big, &big_ids));
        assert_eq!(recover(&mixed).link_fanouts, 1, "{protocol:?}: only the unfenced server");
        assert!(!cluster.ctx.pause.pause_requested(), "{protocol:?}: world left paused");
    }
}
