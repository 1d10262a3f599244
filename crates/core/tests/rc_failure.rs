//! Failures *of the recovery coordinator itself* (paper §3.2.3):
//! every step of recovery is idempotent, so a crashed RC is replaced and
//! the recovery re-executed until it completes.

mod common;

use common::{cluster_with_keys, value_for, KV};
use pandora::{ProtocolKind, RecoveryCoordinator, RecoveryCrashPlan, RecoveryStep, TxnError};
use rdma_sim::{CrashMode, CrashPlan, FaultInjector, NodeId, RdmaError};

/// Freeze a coordinator mid-commit (partial apply) and return its lease.
fn freeze_midcommit(cluster: &pandora::SimCluster) -> (pandora::CoordinatorLease, u64 /* key */) {
    let (mut co, lease) = cluster.coordinator().unwrap();
    co.run(|txn| txn.read(KV, 9).map(|_| ())).unwrap(); // warm cache
    let base = co.injector().ops_issued();
    // Single-write txn op layout (see tests/recovery.rs): op 6 = replica 1
    // fully updated, replica 2 untouched.
    co.injector().arm(CrashPlan { at_op: base + 6, mode: CrashMode::AfterOp });
    let mut txn = co.begin();
    let err = txn.write(KV, 9, &value_for(9, 1)).and_then(|()| txn.commit()).unwrap_err();
    assert_eq!(err, TxnError::Crashed);
    (lease, 9)
}

#[test]
fn rc_crash_mid_recovery_is_reexecutable_at_every_step() {
    // Sweep the RC's own crash point across its whole op sequence; a
    // fresh RC must always finish the job with the same final state.
    for rc_crash_at in 1..=12u64 {
        let cluster = cluster_with_keys(ProtocolKind::Pandora, 32);
        let (lease, key) = freeze_midcommit(&cluster);

        // First RC crashes mid-recovery.
        let injector = FaultInjector::new();
        injector.arm(CrashPlan { at_op: rc_crash_at, mode: CrashMode::AfterOp });
        let rc1 = RecoveryCoordinator::with_injector(std::sync::Arc::clone(&cluster.ctx), injector)
            .unwrap();
        let r1 = rc1.recover_pandora(lease.coord_id, lease.endpoint);
        if r1.completed {
            // The RC finished before its crash point — fine; verify and
            // move on.
            assert_eq!(cluster.peek(KV, key), Some(value_for(key, 0)));
            continue;
        }
        // A crashed RC must not have published the failed-id bit (Cor4).
        assert!(
            !cluster.ctx.failed.contains(lease.coord_id),
            "crashed RC at op {rc_crash_at} must not send the stray-lock notification"
        );

        // A fresh RC re-executes and completes.
        let rc2 = RecoveryCoordinator::new(std::sync::Arc::clone(&cluster.ctx)).unwrap();
        let r2 = rc2.recover_pandora(lease.coord_id, lease.endpoint);
        assert!(r2.completed);

        // Final state: the partial commit is rolled back (or, if the
        // first RC already rolled it back and truncated, the second run
        // was a no-op) — in all cases the pre-image wins and the key is
        // consistent and writable.
        assert_eq!(
            cluster.peek(KV, key),
            Some(value_for(key, 0)),
            "RC crash at op {rc_crash_at}: wrong final state"
        );
        assert!(cluster.ctx.failed.contains(lease.coord_id));
        let (mut co2, _l2) = cluster.coordinator().unwrap();
        co2.run(|txn| txn.write(KV, key, &value_for(key, 5))).unwrap();
        assert_eq!(cluster.peek(KV, key), Some(value_for(key, 5)));
    }
}

/// What an RC knows of terminated links dies with it. A recoverer killed
/// on entry to link termination fenced nothing; the fresh RC that takes
/// over terminates the links itself — before it reads a log: it is killed
/// on entry to log recovery, with no verb issued, and the failed server
/// is already refused.
#[test]
fn a_fresh_rc_terminates_links_before_it_reads_a_log() {
    let cluster = cluster_with_keys(ProtocolKind::Pandora, 32);
    let (lease, _key) = freeze_midcommit(&cluster);
    let probe = cluster.ctx.fabric.qp(lease.endpoint, NodeId(0), FaultInjector::new()).unwrap();
    let ctx = || std::sync::Arc::clone(&cluster.ctx);

    let rc1 = RecoveryCoordinator::new(ctx()).unwrap();
    rc1.arm_recovery_crash(RecoveryCrashPlan { step: RecoveryStep::LinkTermination, at_verb: 0 });
    let r1 = rc1.recover_pandora(lease.coord_id, lease.endpoint);
    assert!(!r1.completed);
    assert_eq!((r1.link_fanouts, r1.verbs), (0, 0), "a dead RC sends nothing");
    assert!(probe.read_u64(0).is_ok(), "nobody has fenced the failed server yet");

    let rc2 = RecoveryCoordinator::new(ctx()).unwrap();
    rc2.arm_recovery_crash(RecoveryCrashPlan { step: RecoveryStep::LogRecovery, at_verb: 0 });
    let r2 = rc2.recover_pandora(lease.coord_id, lease.endpoint);
    assert!(!r2.completed);
    assert_eq!((r2.link_fanouts, r2.verbs), (1, 0), "terminated, and no log READ yet");
    assert_eq!(probe.read_u64(0), Err(RdmaError::AccessRevoked));

    // The same through the FD's takeover: the report is the fresh RC's.
    let cluster = cluster_with_keys(ProtocolKind::Pandora, 32);
    let (lease, key) = freeze_midcommit(&cluster);
    cluster
        .fd
        .arm_recovery_crash(RecoveryCrashPlan { step: RecoveryStep::LinkTermination, at_verb: 0 });
    let report = cluster.fd.declare_failed(lease.coord_id).expect("recovered");
    assert!(report.completed);
    assert_eq!((report.attempts, report.link_fanouts), (2, 1));
    assert_eq!(cluster.peek(KV, key), Some(value_for(key, 0)));
}

#[test]
fn fd_retries_recovery_when_rc_crashes() {
    // End-to-end through the failure detector: the FD's built-in RC is
    // sabotaged; declare_failed must still deliver a completed recovery
    // (via a replacement RC).
    let cluster = cluster_with_keys(ProtocolKind::Pandora, 32);
    let (lease, key) = freeze_midcommit(&cluster);

    // Sabotage the FD's RC: crash it on its 3rd verb.
    cluster
        .fd
        .recovery()
        .injector()
        .arm(CrashPlan { at_op: 3, mode: CrashMode::AfterOp });

    let report = cluster.fd.declare_failed(lease.coord_id).expect("recovered");
    assert!(report.completed, "the FD must retry with a fresh RC");
    assert_eq!(cluster.peek(KV, key), Some(value_for(key, 0)));
    assert!(cluster.ctx.failed.contains(lease.coord_id));
}

#[test]
fn rc_crash_during_baseline_recovery_keeps_world_consistent() {
    let cluster = cluster_with_keys(ProtocolKind::Ford, 32);
    let (lease, key) = freeze_midcommit(&cluster);

    cluster
        .fd
        .recovery()
        .injector()
        .arm(CrashPlan { at_op: 5, mode: CrashMode::AfterOp });
    let report = cluster.fd.declare_failed(lease.coord_id).expect("recovered");
    assert!(report.completed, "retry must complete the baseline recovery");
    // The world must be resumed and the store consistent.
    assert!(!cluster.ctx.pause.pause_requested(), "world must be unpaused after retry");
    assert_eq!(cluster.peek(KV, key), Some(value_for(key, 0)));
}
