//! 16-bit coordinator-id space: wraparound guard, exhaustion, and
//! reincarnation after recycling (paper §3.1.2 — the id space is finite
//! by design; recycling is what keeps a long-lived cluster alive).

mod common;

use common::{cluster_with_keys, value_for, KV};
use dkvs::MAX_COORDINATORS;
use pandora::ProtocolKind;
use rdma_sim::{CrashMode, CrashPlan};

#[test]
#[should_panic(expected = "cannot advance past the 16-bit id space")]
fn advance_past_the_id_space_panics() {
    let cluster = cluster_with_keys(ProtocolKind::Pandora, 8);
    cluster.fd.advance_id_space(MAX_COORDINATORS as u32 + 1);
}

#[test]
#[should_panic(expected = "coordinator-id space exhausted")]
fn exhaustion_with_nothing_recyclable_panics() {
    let cluster = cluster_with_keys(ProtocolKind::Pandora, 8);
    // All 64K ids consumed, none failed, none deregistered: the 95%
    // recycling pass finds nothing to reclaim and registration must
    // fail loudly rather than alias an id.
    cluster.fd.advance_id_space(MAX_COORDINATORS as u32);
    let _ = cluster.coordinator();
}

#[test]
fn the_last_id_of_the_space_is_usable() {
    let cluster = cluster_with_keys(ProtocolKind::Pandora, 8);
    // next_id = 65535: exactly one id left. Registration must hand out
    // u16::MAX without truncation and the coordinator must transact.
    cluster.fd.advance_id_space(MAX_COORDINATORS as u32 - 1);
    let (mut co, lease) = cluster.coordinator().unwrap();
    assert_eq!(lease.coord_id, u16::MAX);
    co.run(|txn| txn.write(KV, 3, &value_for(3, 1))).unwrap();
    // Read back through the same coordinator — the space is exhausted,
    // so `peek` (which registers a throwaway coordinator) cannot run.
    let (read, _) = co.run(|txn| txn.read(KV, 3)).unwrap();
    assert_eq!(read, Some(value_for(3, 1)));
}

#[test]
fn reincarnation_after_id_space_recycling() {
    let cluster = cluster_with_keys(ProtocolKind::Pandora, 64);

    // A coordinator dies holding a stray lock...
    let (mut co1, l1) = cluster.coordinator().unwrap();
    co1.run(|txn| txn.read(KV, 7).map(|_| ())).unwrap();
    let base = co1.injector().ops_issued();
    co1.injector().arm(CrashPlan { at_op: base + 2, mode: CrashMode::AfterOp });
    {
        let mut txn = co1.begin();
        let _ = txn.write(KV, 7, &value_for(7, 1));
    }
    cluster.fd.declare_failed(l1.coord_id).unwrap();
    assert!(cluster.ctx.failed.contains(l1.coord_id));

    // ...and the rest of the id space is fully consumed. Registration
    // can only succeed by recycling the dead id — this would panic with
    // "coordinator-id space exhausted" if recycling failed.
    cluster.fd.advance_id_space(MAX_COORDINATORS as u32);
    let (mut co2, l2) = cluster.coordinator().unwrap();
    assert_eq!(l2.coord_id, l1.coord_id, "the recycled id must be handed out again");
    assert!(
        !cluster.ctx.failed.contains(l2.coord_id),
        "a reincarnated id must not read as failed (its strays were released by the scan)"
    );

    // The reincarnation transacts on its predecessor's keys without
    // stealing: the recycling scan already released the stray.
    co2.run(|txn| txn.write(KV, 7, &value_for(7, 2))).unwrap();
    assert_eq!(co2.stats.locks_stolen, 0);
    // The reincarnation holds the only id, so read back through it
    // rather than via `peek` (which would need a fresh registration).
    let (read, _) = co2.run(|txn| txn.read(KV, 7)).unwrap();
    assert_eq!(read, Some(value_for(7, 2)));
}

#[test]
fn concurrent_recyclers_recycle_exactly_once() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};

    let cluster = Arc::new(cluster_with_keys(ProtocolKind::Pandora, 64));

    // One dead coordinator with one stray lock.
    let (mut co, lease) = cluster.coordinator().unwrap();
    co.run(|txn| txn.read(KV, 13).map(|_| ())).unwrap();
    let base = co.injector().ops_issued();
    co.injector().arm(CrashPlan { at_op: base + 2, mode: CrashMode::AfterOp });
    {
        let mut txn = co.begin();
        let _ = txn.write(KV, 13, &value_for(13, 1));
    }
    cluster.fd.declare_failed(lease.coord_id).unwrap();
    let epoch_before = cluster.ctx.failed.epoch();

    // Two recoverers race the recycling scan for the same failed id.
    // The CAS-guarded claim must admit exactly one: no double-release,
    // no double epoch bump for the single bit clear.
    let barrier = Arc::new(Barrier::new(2));
    let total_released = Arc::new(AtomicUsize::new(0));
    let total_recycled = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let cluster = Arc::clone(&cluster);
            let barrier = Arc::clone(&barrier);
            let released = Arc::clone(&total_released);
            let recycled = Arc::clone(&total_recycled);
            std::thread::spawn(move || {
                let rc = cluster.fd.recovery();
                barrier.wait();
                let (rel, rec) = rc.recycle_failed_ids();
                released.fetch_add(rel, Ordering::AcqRel);
                recycled.fetch_add(rec, Ordering::AcqRel);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // The loser may observe (0, 0) and a later pass may re-run against
    // an already-clean set; in aggregate the id is recycled exactly once
    // and the single stray released exactly once.
    assert_eq!(total_released.load(Ordering::Acquire), 1, "stray released exactly once");
    assert_eq!(total_recycled.load(Ordering::Acquire), 1, "id recycled exactly once");
    assert!(!cluster.ctx.failed.contains(lease.coord_id));
    // One clear = exactly one epoch bump.
    assert_eq!(cluster.ctx.failed.epoch(), epoch_before + 1, "epoch bumped exactly once");
}

/// The failed set must be read *under* the recycle claim. A recycler
/// that snapshots the set, is kept off the core while another claimant
/// scans, clears and releases, and only then wins the claim would scan
/// with a list of ids that are no longer failed: it reported them
/// recycled a second time and — had the FD reassigned one meanwhile —
/// would have released a live coordinator's locks. More racers than
/// cores, many rounds: the window is a preemption wide.
#[test]
fn a_late_claimant_recycles_the_set_it_finds_not_one_it_remembered() {
    use std::sync::{Arc, Barrier};

    const RACERS: usize = 6;
    const ROUNDS: u16 = 4_000;
    let cluster = Arc::new(cluster_with_keys(ProtocolKind::Pandora, 8));
    let rc = cluster.fd.recovery();
    let failed = &cluster.ctx.failed;
    for round in 0..ROUNDS {
        let id = 40_000 + round;
        failed.set(id);
        let epoch = failed.epoch();
        let barrier = Barrier::new(RACERS);
        let recycled: usize = std::thread::scope(|s| {
            let racers: Vec<_> = (0..RACERS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        rc.recycle_failed_ids().1
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().expect("recycler")).sum()
        });
        // The first claimant always finds the id set and recycles it.
        assert_eq!(recycled, 1, "round {round}: id {id} reported recycled {recycled} times");
        assert_eq!(failed.epoch(), epoch + 1, "round {round}: one clear, one epoch bump");
        assert!(!failed.contains(id));
    }
}
