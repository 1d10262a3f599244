//! Exhaustive crash-point sweep: a transaction writing two keys is
//! crashed at *every* verb index, both before and after the verb, under
//! all three protocols. After recovery, the database must be atomic
//! (both keys old, or both new), replica-consistent, and unlocked — the
//! invariant that makes memory "always in a recoverable state"
//! (paper §1.1). This is the systematic version of the paper's random
//! crash injection. A second sweep does the same to one transaction of
//! every `WriteKind` (update + insert + delete): the first rows of the
//! mutation × outcome matrix. A third sweeps a three-key transfer whose
//! execute phase is one `Txn::fetch` — warm, all three lock CASes are on
//! the wire before any outcome is known.

use dkvs::{TableDef, TableId};
use pandora::{Access, ProtocolKind, SimCluster, SystemConfig};
use rdma_sim::{CrashMode, CrashPlan};

const KV: TableId = TableId(0);

fn value(gen: u64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[0..8].copy_from_slice(&gen.to_le_bytes());
    v
}

fn gen_of(v: &[u8]) -> u64 {
    u64::from_le_bytes(v[0..8].try_into().unwrap())
}

fn build(protocol: ProtocolKind) -> SimCluster {
    let cluster = SimCluster::builder(protocol)
        .memory_nodes(3)
        .replication(2)
        .capacity_per_node(8 << 20)
        .table(TableDef::new(0, "kv", 16, 32, 8))
        .max_coord_slots(16)
        .config(SystemConfig::new(protocol))
        .build()
        .unwrap();
    cluster.bulk_load(KV, (0..16u64).map(|k| (k, value(0)))).unwrap();
    cluster
}

/// Crash a two-key write transaction at verb `at_op` and verify the
/// post-recovery state. Returns true if the crash plan actually fired.
fn sweep_once(protocol: ProtocolKind, at_op: u64, mode: CrashMode) -> bool {
    sweep_once_tear(protocol, at_op, mode, None)
}

/// Like [`sweep_once`], but with the `MidWrite` tear offset pinned to
/// `tear_pp`/1024 of the torn payload (`None` keeps the default
/// midpoint tear).
fn sweep_once_tear(
    protocol: ProtocolKind,
    at_op: u64,
    mode: CrashMode,
    tear_pp: Option<u32>,
) -> bool {
    let cluster = build(protocol);
    let (mut co, lease) = cluster.coordinator().unwrap();
    if let Some(pp) = tear_pp {
        co.injector().set_tear_point(pp);
    }
    co.injector().arm(CrashPlan { at_op, mode });
    let commit_result = {
        let mut txn = co.begin();
        txn.write(KV, 3, &value(1))
            .and_then(|()| txn.write(KV, 7, &value(1)))
            .and_then(|()| txn.commit())
    };
    let fired = co.injector().is_crashed();
    if fired {
        co.gate().mark_dead();
        cluster.fd.declare_failed(lease.coord_id).expect("recovery runs");
    }

    // Atomicity: both keys at the same generation.
    let g3 = gen_of(&cluster.peek(KV, 3).expect("key 3"));
    let g7 = gen_of(&cluster.peek(KV, 7).expect("key 7"));
    assert_eq!(
        g3, g7,
        "{protocol:?} crash {mode:?}@{at_op}: atomicity violated (gens {g3} vs {g7}, commit={commit_result:?})"
    );
    // Commit-ack semantics: an acked commit must survive recovery.
    if commit_result.is_ok() {
        assert_eq!(g3, 1, "{protocol:?} crash {mode:?}@{at_op}: acked commit lost");
    }
    // Replica consistency + no *live* leaked locks. Under PILL, a
    // NotLogged stray lock legitimately remains after recovery — its
    // owner is in the failed-ids set, which makes it stealable (and
    // therefore semantically free); Baseline/Traditional scrub locks
    // eagerly during their stop-the-world recovery.
    for key in [3u64, 7] {
        let mut seen = Vec::new();
        for node in cluster.replica_nodes(KV, key) {
            let (lock, version, val) = cluster.raw_slot(KV, key, node).expect("replica slot");
            if lock.is_locked() {
                assert!(
                    protocol == ProtocolKind::Pandora && cluster.ctx.failed.contains(lock.owner()),
                    "{protocol:?} crash {mode:?}@{at_op}: leaked live lock on key {key}"
                );
            }
            seen.push((version, val));
        }
        assert!(
            seen.windows(2).all(|w| w[0] == w[1]),
            "{protocol:?} crash {mode:?}@{at_op}: replicas diverge on key {key}"
        );
    }

    // Liveness: both keys must be writable by a fresh coordinator
    // (stealing the stray if one remains), and the write is atomic.
    if fired {
        let (mut co2, _l2) = cluster.coordinator().unwrap();
        co2.run(|txn| {
            txn.write(KV, 3, &value(9))?;
            txn.write(KV, 7, &value(9))
        })
        .unwrap_or_else(|e| {
            panic!("{protocol:?} crash {mode:?}@{at_op}: keys not writable after recovery: {e}")
        });
        assert_eq!(gen_of(&cluster.peek(KV, 3).unwrap()), 9);
        assert_eq!(gen_of(&cluster.peek(KV, 7).unwrap()), 9);
    }
    fired
}

fn sweep(protocol: ProtocolKind) {
    let mut fired_any = false;
    let mut never_fired_from = None;
    for at_op in 1..=40u64 {
        for mode in [CrashMode::BeforeOp, CrashMode::AfterOp, CrashMode::MidWrite] {
            let fired = sweep_once(protocol, at_op, mode);
            fired_any |= fired;
            if !fired && never_fired_from.is_none() {
                never_fired_from = Some(at_op);
            }
        }
    }
    assert!(fired_any, "the sweep never crashed anything — op indexes wrong?");
    // The transaction has a bounded verb count; late indexes must not fire.
    assert!(
        never_fired_from.is_some(),
        "even op 40 fired — the txn is longer than the sweep covers"
    );
}

#[test]
fn pandora_survives_every_crash_point() {
    sweep(ProtocolKind::Pandora);
}

#[test]
fn baseline_survives_every_crash_point() {
    sweep(ProtocolKind::Ford);
}

#[test]
fn traditional_survives_every_crash_point() {
    sweep(ProtocolKind::Traditional);
}

/// What one key looks like on every replica after recovery: `Some(gen)`
/// if present, `None` if absent. Asserts the replicas agree and no live
/// lock remains. A slot that was never claimed, a claimed-but-unwritten
/// key word (an insert that never applied) and a tombstone all read as
/// absent — exactly what `peek` reports.
fn settled(cluster: &SimCluster, protocol: ProtocolKind, key: u64, ctx: &str) -> Option<u64> {
    let mut seen = Vec::new();
    for node in cluster.replica_nodes(KV, key) {
        let state = cluster.raw_slot(KV, key, node).and_then(|(lock, version, val)| {
            assert!(
                !lock.is_locked()
                    || (protocol == ProtocolKind::Pandora
                        && cluster.ctx.failed.contains(lock.owner())),
                "{ctx}: leaked live lock on key {key}"
            );
            version.is_present().then(|| gen_of(&val))
        });
        seen.push(state);
    }
    assert!(
        seen.windows(2).all(|w| w[0] == w[1]),
        "{ctx}: replicas diverge on key {key}: {seen:?}"
    );
    assert_eq!(
        seen[0],
        cluster.peek(KV, key).map(|v| gen_of(&v)),
        "{ctx}: peek disagrees on {key}"
    );
    seen[0]
}

/// One transaction of every `WriteKind` — update key 3, insert the
/// absent key 100, delete key 11 — crashed at verb `at_op`. After
/// recovery the three keys are all-old or all-new on every replica, an
/// acked commit is all-new, and all three are usable again.
fn mixed_sweep_once(protocol: ProtocolKind, at_op: u64, mode: CrashMode) -> bool {
    const INSERTED: u64 = 100;
    let ctx = format!("{protocol:?} mixed crash {mode:?}@{at_op}");
    let cluster = build(protocol);
    let (mut co, lease) = cluster.coordinator().unwrap();
    co.injector().arm(CrashPlan { at_op, mode });
    let commit_result = {
        let mut txn = co.begin();
        txn.write(KV, 3, &value(1))
            .and_then(|()| txn.insert(KV, INSERTED, &value(1)))
            .and_then(|()| txn.delete(KV, 11))
            .and_then(|()| txn.commit())
    };
    let fired = co.injector().is_crashed();
    if fired {
        co.gate().mark_dead();
        cluster.fd.declare_failed(lease.coord_id).expect("recovery runs");
    }

    let after = [3, INSERTED, 11].map(|k| settled(&cluster, protocol, k, &ctx));
    let all_old = [Some(0), None, Some(0)];
    let all_new = [Some(1), Some(1), None];
    assert!(
        after == all_old || after == all_new,
        "{ctx}: atomicity violated: {after:?} (commit={commit_result:?})"
    );
    if commit_result.is_ok() {
        assert_eq!(after, all_new, "{ctx}: acked commit lost");
    }

    // Liveness: a fresh coordinator can write or (re-)insert all three.
    if fired {
        let (mut co2, _l2) = cluster.coordinator().unwrap();
        co2.run(|txn| {
            for (k, now) in [3, INSERTED, 11].into_iter().zip(after) {
                match now {
                    Some(_) => txn.write(KV, k, &value(9))?,
                    None => txn.insert(KV, k, &value(9))?,
                }
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{ctx}: keys not usable after recovery: {e}"));
        for k in [3, INSERTED, 11] {
            assert_eq!(settled(&cluster, protocol, k, &ctx), Some(9));
        }
    }
    fired
}

#[test]
fn every_write_kind_survives_every_crash_point() {
    for protocol in [ProtocolKind::Pandora, ProtocolKind::Ford, ProtocolKind::Traditional] {
        let mut fired_any = false;
        let mut all_fired = true;
        for at_op in 1..=40u64 {
            for mode in [CrashMode::BeforeOp, CrashMode::AfterOp, CrashMode::MidWrite] {
                let fired = mixed_sweep_once(protocol, at_op, mode);
                fired_any |= fired;
                all_fired &= fired;
            }
        }
        assert!(fired_any, "{protocol:?}: the mixed sweep never crashed anything");
        assert!(!all_fired, "{protocol:?}: the mixed txn is longer than the sweep covers");
    }
}

/// A transfer over three keys — lock-read all three in one `fetch`, take
/// two from the first, give one to each of the others — crashed at verb
/// `at_op` of the transaction. After recovery the three balances are
/// all-old or all-new on every replica (so their sum is conserved), no
/// live lock remains, and a fresh coordinator can run the transfer.
fn transfer_sweep_once(protocol: ProtocolKind, warm: bool, at_op: u64, mode: CrashMode) -> bool {
    const KEYS: [u64; 3] = [3, 7, 12];
    let ctx =
        format!("{protocol:?} {} transfer crash {mode:?}@{at_op}", ["cold", "warm"][warm as usize]);
    let cluster = build(protocol);
    let (mut funder, _lf) = cluster.coordinator().unwrap();
    let (mut co, lease) = cluster.coordinator().unwrap();
    // A cold coordinator resolves each key before it locks it; a warm
    // one posts the three lock CAS + READ pairs together.
    let fund = if warm { &mut co } else { &mut funder };
    fund.run(|txn| KEYS.iter().try_for_each(|&k| txn.write(KV, k, &value(10))))
        .unwrap();
    let transfer = |txn: &mut pandora::Txn<'_>| {
        let rows = KEYS.map(|k| (KV, k, Access::ForUpdate));
        let held: Vec<u64> =
            txn.fetch(&rows)?.iter().map(|v| gen_of(v.as_ref().unwrap())).collect();
        txn.write(KV, KEYS[0], &value(held[0] - 2))?;
        txn.write(KV, KEYS[1], &value(held[1] + 1))?;
        txn.write(KV, KEYS[2], &value(held[2] + 1))
    };
    let injector = co.injector();
    injector.arm(CrashPlan { at_op: injector.ops_issued() + at_op, mode });
    let commit_result = {
        let mut txn = co.begin();
        transfer(&mut txn).and_then(|()| txn.commit())
    };
    let fired = injector.is_crashed();
    if fired {
        co.gate().mark_dead();
        cluster.fd.declare_failed(lease.coord_id).expect("recovery runs");
    }

    let after = KEYS.map(|k| settled(&cluster, protocol, k, &ctx));
    let (all_old, all_new) = ([Some(10); 3], [Some(8), Some(11), Some(11)]);
    assert!(
        after == all_old || after == all_new,
        "{ctx}: not conserved: {after:?} (commit={commit_result:?})"
    );
    if commit_result.is_ok() {
        assert_eq!(after, all_new, "{ctx}: acked commit lost");
    }
    if fired {
        let (mut co2, _l2) = cluster.coordinator().unwrap();
        co2.run(transfer)
            .unwrap_or_else(|e| panic!("{ctx}: keys not usable after recovery: {e}"));
        let total: u64 = KEYS.iter().map(|&k| settled(&cluster, protocol, k, &ctx).unwrap()).sum();
        assert_eq!(total, 30, "{ctx}: the next transfer lost money");
    }
    fired
}

#[test]
fn a_fetched_transfer_survives_every_crash_point() {
    for protocol in [ProtocolKind::Pandora, ProtocolKind::Ford, ProtocolKind::Traditional] {
        for warm in [false, true] {
            let mut fired_any = false;
            let mut all_fired = true;
            for at_op in 1..=40u64 {
                for mode in [CrashMode::BeforeOp, CrashMode::AfterOp, CrashMode::MidWrite] {
                    let fired = transfer_sweep_once(protocol, warm, at_op, mode);
                    fired_any |= fired;
                    all_fired &= fired;
                }
            }
            assert!(fired_any, "{protocol:?}: the transfer sweep never crashed anything");
            assert!(!all_fired, "{protocol:?}: the transfer is longer than the sweep covers");
        }
    }
}

#[test]
fn tear_extremes_survive_mid_write_crashes() {
    // MidWrite crashes historically always tore at the payload midpoint.
    // The extreme placements are the interesting ones: pp 0 means the
    // torn verb lands *nothing* (crash just before the write), pp 1024
    // means it lands *everything* (crash just after) — both must leave
    // the store recoverable at every verb index, for every protocol.
    for protocol in [ProtocolKind::Pandora, ProtocolKind::Ford, ProtocolKind::Traditional] {
        for pp in [0u32, 1024] {
            let mut fired_any = false;
            for at_op in 1..=20u64 {
                fired_any |= sweep_once_tear(protocol, at_op, CrashMode::MidWrite, Some(pp));
            }
            assert!(fired_any, "{protocol:?} tear pp={pp}: no crash point fired");
        }
    }
}

#[test]
fn seeded_tear_points_recover() {
    // Seed-derived tear placements (the chaos harness path): each seed
    // deterministically picks a tear offset; sweeping a few verb indexes
    // under each must recover like the midpoint default does.
    for seed in [1u64, 7, 42] {
        let probe = rdma_sim::FaultInjector::new();
        probe.seed_tear_point(seed);
        let pp = probe.tear_point();
        for at_op in [3u64, 6, 9, 12] {
            sweep_once_tear(ProtocolKind::Pandora, at_op, CrashMode::MidWrite, Some(pp));
        }
    }
}

#[test]
fn double_recovery_after_any_crash_point_is_idempotent() {
    // Re-run recovery after the fact at a few interesting crash points
    // (post-lock, post-log, mid-apply, pre-unlock).
    for at_op in [2u64, 5, 8, 11, 14] {
        let cluster = build(ProtocolKind::Pandora);
        let (mut co, lease) = cluster.coordinator().unwrap();
        co.injector().arm(CrashPlan { at_op, mode: CrashMode::AfterOp });
        {
            let mut txn = co.begin();
            let _ = txn
                .write(KV, 3, &value(1))
                .and_then(|()| txn.write(KV, 7, &value(1)))
                .and_then(|()| txn.commit());
        }
        if !co.injector().is_crashed() {
            continue;
        }
        co.gate().mark_dead();
        let rc = cluster.fd.recovery();
        let r1 = rc.recover_pandora(lease.coord_id, lease.endpoint);
        let g3_first = gen_of(&cluster.peek(KV, 3).unwrap());
        let r2 = rc.recover_pandora(lease.coord_id, lease.endpoint);
        let g3_second = gen_of(&cluster.peek(KV, 3).unwrap());
        assert_eq!(g3_first, g3_second, "second recovery changed state at op {at_op}");
        assert_eq!(r2.logged_txns, 0, "logs must be truncated after the first pass");
        let _ = r1;
    }
}

#[test]
fn simultaneous_coordinator_failures_recover_atomically() {
    // Three coordinators writing disjoint key pairs all crash (at
    // different verb offsets) BEFORE any recovery runs — the FD then
    // processes the failures one by one, as a real detector sweeping a
    // dead compute server would. Every pair must stay atomic and every
    // key writable afterwards.
    for offsets in [[2u64, 5, 8], [3, 9, 12], [4, 4, 4]] {
        let cluster = build(ProtocolKind::Pandora);
        let pairs: [(u64, u64); 3] = [(0, 1), (4, 5), (10, 11)];
        let mut crashed = Vec::new();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let (mut co, lease) = cluster.coordinator().unwrap();
            co.injector().arm(CrashPlan { at_op: offsets[i], mode: CrashMode::AfterOp });
            {
                let mut txn = co.begin();
                let _ = txn
                    .write(KV, a, &value(1))
                    .and_then(|()| txn.write(KV, b, &value(1)))
                    .and_then(|()| txn.commit());
            }
            assert!(co.injector().is_crashed(), "offset {} did not fire", offsets[i]);
            co.gate().mark_dead();
            crashed.push((co, lease));
        }
        for (_, lease) in &crashed {
            cluster.fd.declare_failed(lease.coord_id).expect("recovery");
        }
        let (mut fresh, _lf) = cluster.coordinator().unwrap();
        for &(a, b) in &pairs {
            let ga = gen_of(&cluster.peek(KV, a).unwrap());
            let gb = gen_of(&cluster.peek(KV, b).unwrap());
            assert_eq!(ga, gb, "pair ({a},{b}) torn after multi-failure recovery");
            fresh
                .run(|txn| {
                    txn.write(KV, a, &value(9))?;
                    txn.write(KV, b, &value(9))
                })
                .unwrap_or_else(|e| panic!("pair ({a},{b}) not writable: {e}"));
        }
    }
}

#[test]
fn successive_failures_on_the_same_keys_recover() {
    // co1 crashes holding the locks on a key pair; after its recovery,
    // co2 steals the strays, writes the same pair, and crashes
    // mid-commit itself. The second recovery must still produce an
    // atomic, writable pair — stray-lock stealing composes with repeated
    // failures on the same objects.
    for second_offset in [2u64, 6, 9, 12] {
        let cluster = build(ProtocolKind::Pandora);

        let (mut co1, l1) = cluster.coordinator().unwrap();
        co1.injector().arm(CrashPlan { at_op: 4, mode: CrashMode::AfterOp });
        {
            let mut txn = co1.begin();
            let _ = txn
                .write(KV, 3, &value(1))
                .and_then(|()| txn.write(KV, 7, &value(1)))
                .and_then(|()| txn.commit());
        }
        assert!(co1.injector().is_crashed());
        co1.gate().mark_dead();
        cluster.fd.declare_failed(l1.coord_id).unwrap();

        let (mut co2, l2) = cluster.coordinator().unwrap();
        co2.injector()
            .arm(CrashPlan { at_op: second_offset, mode: CrashMode::MidWrite });
        {
            let mut txn = co2.begin();
            let _ = txn
                .write(KV, 3, &value(2))
                .and_then(|()| txn.write(KV, 7, &value(2)))
                .and_then(|()| txn.commit());
        }
        if co2.injector().is_crashed() {
            co2.gate().mark_dead();
            cluster.fd.declare_failed(l2.coord_id).unwrap();
        }

        let g3 = gen_of(&cluster.peek(KV, 3).unwrap());
        let g7 = gen_of(&cluster.peek(KV, 7).unwrap());
        assert_eq!(g3, g7, "second failure at op {second_offset} tore the pair");

        let (mut co3, _l3) = cluster.coordinator().unwrap();
        co3.run(|txn| {
            txn.write(KV, 3, &value(9))?;
            txn.write(KV, 7, &value(9))
        })
        .unwrap_or_else(|e| panic!("keys dead after two failures (op {second_offset}): {e}"));
    }
}
