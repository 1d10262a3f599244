//! Recovery under fire: the recoverer itself is killed at every
//! step/verb boundary of the four-step protocol (paper §3.2), and a
//! surviving `QuorumFd` replica takes over by re-running recovery from
//! scratch. The sweep asserts convergence: zero residual locks,
//! conserved bank balances, and commit/abort decisions identical to an
//! uninterrupted recovery of the same crash state. Compound scenarios
//! add a memory-node death inside the takeover window and overlapping
//! recoveries of the same coordinator (double-steal / double-truncate
//! audit). Failures dump the flight recorder; replay a cell from the
//! printed label (the coordinator crash offset is the seed).

use std::sync::{Arc, Barrier};
use std::time::Duration;

use dkvs::{TableDef, TableId};
use pandora::{
    FdOutcome, ProtocolKind, QuorumFd, RecoveryCoordinator, RecoveryCrashPlan, RecoveryReport,
    RecoveryStep, SimCluster, SystemConfig, TxnRequest,
};
use rdma_sim::{ChaosConfig, CrashMode, CrashPlan, EndpointId, NodeId};

const ACCOUNTS: TableId = TableId(0);
const N_ACCOUNTS: u64 = 16;
const INITIAL: i64 = 1_000;
const AMOUNT: i64 = 7;

/// Pinned coordinator crash offsets — the sweep's seeds. Early (locks
/// parked, nothing logged), mid (logged, partially applied), late
/// (applied / post-commit): the three qualitatively different states a
/// recoverer can die on top of.
const PINNED_SEEDS: [u64; 3] = [2, 8, 14];

fn value(b: i64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[0..8].copy_from_slice(&b.to_le_bytes());
    v
}

fn balance(v: &[u8]) -> i64 {
    i64::from_le_bytes(v[0..8].try_into().unwrap())
}

fn build(chaos: Option<ChaosConfig>, flight: bool) -> SimCluster {
    let mut b = SimCluster::builder(ProtocolKind::Pandora)
        .memory_nodes(3)
        .replication(2)
        .capacity_per_node(8 << 20)
        .table(TableDef::new(0, "kv", 16, 32, 8))
        .max_coord_slots(16)
        .config(SystemConfig::new(ProtocolKind::Pandora));
    if let Some(cfg) = chaos {
        b = b.chaos(cfg);
    }
    if flight {
        b = b.flight(4096);
    }
    let cluster = b.build().unwrap();
    cluster
        .bulk_load(ACCOUNTS, (0..N_ACCOUNTS).map(|k| (k, value(INITIAL))))
        .unwrap();
    cluster
}

/// Run a bank transfer `from -> to` and kill the coordinator at verb
/// `at_op`, leaving its locks/log entries behind. Returns the dead
/// coordinator's id and endpoint.
fn crash_transfer(cluster: &SimCluster, at_op: u64, from: u64, to: u64) -> (u16, EndpointId) {
    let (mut co, lease) = cluster.coordinator().unwrap();
    co.injector().arm(CrashPlan { at_op, mode: CrashMode::AfterOp });
    {
        let mut txn = co.begin();
        let _ = (|| {
            let a = balance(&txn.read(ACCOUNTS, from)?.expect("from account"));
            let b = balance(&txn.read(ACCOUNTS, to)?.expect("to account"));
            txn.write(ACCOUNTS, from, &value(a - AMOUNT))?;
            txn.write(ACCOUNTS, to, &value(b + AMOUNT))?;
            txn.commit()
        })();
    }
    assert!(co.injector().is_crashed(), "crash offset {at_op} did not fire");
    co.gate().mark_dead();
    (lease.coord_id, lease.endpoint)
}

fn balances(cluster: &SimCluster) -> Vec<i64> {
    (0..N_ACCOUNTS)
        .map(|k| balance(&cluster.peek(ACCOUNTS, k).unwrap_or_else(|| panic!("account {k}"))))
        .collect()
}

/// Post-recovery cleanliness: failed ids recycled, zero residual locks
/// on any live replica, money conserved.
fn audit_clean(cluster: &SimCluster, label: &str) {
    cluster.fd.recovery().recycle_failed_ids();
    assert_eq!(cluster.ctx.failed.population(), 0, "{label}: failed ids not recycled");
    let dead = cluster.ctx.dead_nodes();
    for k in 0..N_ACCOUNTS {
        for node in cluster.replica_nodes(ACCOUNTS, k) {
            if dead.contains(&node) {
                continue;
            }
            let (lock, _, _) = cluster
                .raw_slot(ACCOUNTS, k, node)
                .unwrap_or_else(|| panic!("{label}: account {k} missing on {node:?}"));
            assert!(
                !lock.is_locked(),
                "{label}: residual lock on account {k} node {node:?} (owner {})",
                lock.owner()
            );
        }
    }
    let total: i64 = balances(cluster).iter().sum();
    assert_eq!(total, N_ACCOUNTS as i64 * INITIAL, "{label}: money not conserved");
}

/// The uninterrupted run: same coordinator crash, recovery with no
/// nested failures. Its balances are the commit/abort decisions the
/// nested runs must reproduce; its report is the recovery's budget.
fn control(at_op: u64) -> (Vec<i64>, RecoveryReport) {
    let cluster = build(None, false);
    let (coord, _ep) = crash_transfer(&cluster, at_op, 3, 7);
    let report = cluster.fd.declare_failed(coord).expect("control recovery");
    assert!(report.completed);
    assert_eq!(report.attempts, 1, "control recovery must not need takeovers");
    audit_clean(&cluster, &format!("control at_op {at_op}"));
    (balances(&cluster), report)
}

fn control_balances(at_op: u64) -> Vec<i64> {
    control(at_op).0
}

/// The tentpole sweep: (recovery step × crash verb × pinned seed); each
/// cell kills the recovering FD replica and requires the surviving
/// replica's takeover to converge to the control state.
#[test]
fn nested_crash_sweep_takeover_converges_to_control() {
    for &seed_op in &PINNED_SEEDS {
        let control = control_balances(seed_op);
        let mut takeover_cells = 0usize;
        let mut quiet_cells = 0usize;
        for step in RecoveryStep::ALL {
            for at_verb in [0u64, 1, 2, 7] {
                let label = format!("seed {seed_op}, kill {}:{at_verb}", step.name());
                let cluster = Arc::new(build(None, true));
                let flight = cluster.flight.clone().expect("flight recorder installed");
                flight.set_chaos_seed(seed_op);
                pandora::dump_on_panic(
                    Some(&flight),
                    "recovery-nested-crash",
                    std::panic::AssertUnwindSafe(|| {
                        let (coord, _ep) = crash_transfer(&cluster, seed_op, 3, 7);
                        cluster.fd.arm_recovery_crash(RecoveryCrashPlan { step, at_verb });
                        let qfd = QuorumFd::new(Arc::clone(&cluster.fd), 3);
                        let outcome = qfd.detect_and_recover(coord, Duration::from_millis(3));
                        let report = match outcome {
                            FdOutcome::Recovered(r) => r,
                            other => panic!("{label}: expected a recovery, got {other:?}"),
                        };
                        assert!(report.completed, "{label}: recovery incomplete after takeovers");
                        let takeovers = report.attempts.saturating_sub(1);
                        if takeovers > 0 {
                            takeover_cells += 1;
                            // The dead recoverer was an FD replica; later
                            // quorum math must see the loss.
                            assert_eq!(
                                qfd.live_replicas(),
                                3 - takeovers as usize,
                                "{label}: dead recoverer not reflected in the quorum"
                            );
                            let spans = flight.snapshot();
                            assert!(
                                spans.iter().any(|s| s.name == "recovery-takeover"),
                                "{label}: no takeover instant on the chaos track"
                            );
                            assert!(
                                spans.iter().any(|s| s.name.starts_with("crash-point-")),
                                "{label}: no crash-point instant on the chaos track"
                            );
                        } else {
                            quiet_cells += 1;
                        }
                        if at_verb == 0 {
                            // A kill at step entry always fires.
                            assert!(
                                takeovers >= 1,
                                "{label}: a step-entry kill must force a takeover"
                            );
                        }
                        audit_clean(&cluster, &label);
                        assert_eq!(
                            balances(&cluster),
                            control,
                            "{label}: decisions diverge from the uninterrupted recovery"
                        );
                    }),
                );
            }
        }
        assert!(
            takeover_cells >= 8,
            "seed {seed_op}: only {takeover_cells} cells exercised a takeover"
        );
        assert!(
            quiet_cells >= 1,
            "seed {seed_op}: every cell forced a takeover — overshoot semantics untested"
        );
    }
}

/// Log recovery posts a whole phase before it waits, so a recoverer that
/// dies a few verbs in dies with the rest of that phase never posted and
/// the posted part already in memory: the crash lands *inside* a phase,
/// before its barrier. What log recovery issues depends on what the
/// failure left — two region READs and nothing else when nothing was
/// logged — so the kill offsets are not guessed: they are the first verb,
/// the quarter points and the last verb of the uninterrupted control
/// run's [`RecoveryReport::verbs`], and every one of them fires.
#[test]
fn a_kill_inside_a_posted_phase_converges_to_control() {
    for &seed_op in &PINNED_SEEDS {
        let (control, budget) = control(seed_op);
        let verbs = budget.verbs;
        assert!(verbs >= 2, "seed {seed_op}: log recovery reads two log copies at least");
        let mut offsets = vec![1, verbs / 4, verbs / 2, verbs * 3 / 4, verbs];
        offsets.retain(|&at_verb| at_verb >= 1);
        offsets.dedup();
        for &at_verb in &offsets {
            let label = format!("seed {seed_op}, kill log-recovery:{at_verb} of {verbs}");
            let cluster = Arc::new(build(None, true));
            let flight = cluster.flight.clone().expect("flight recorder installed");
            flight.set_chaos_seed(seed_op);
            pandora::dump_on_panic(
                Some(&flight),
                "recovery-nested-crash",
                std::panic::AssertUnwindSafe(|| {
                    let (coord, _ep) = crash_transfer(&cluster, seed_op, 3, 7);
                    cluster.fd.arm_recovery_crash(RecoveryCrashPlan {
                        step: RecoveryStep::LogRecovery,
                        at_verb,
                    });
                    let qfd = QuorumFd::new(Arc::clone(&cluster.fd), 3);
                    let report = match qfd.detect_and_recover(coord, Duration::from_millis(3)) {
                        FdOutcome::Recovered(r) => r,
                        other => panic!("{label}: expected a recovery, got {other:?}"),
                    };
                    assert!(report.completed, "{label}: recovery incomplete after takeovers");
                    // Within the budget, so the kill landed — after the
                    // last verb at the latest, before the notification.
                    assert_eq!(report.attempts, 2, "{label}: the kill did not fire");
                    audit_clean(&cluster, &label);
                    assert_eq!(
                        balances(&cluster),
                        control,
                        "{label}: decisions diverge from the uninterrupted recovery"
                    );
                }),
            );
        }
    }
}

/// Compound failure: a memory node dies inside the takeover window, so
/// the re-run recovers against the post-promotion placement.
#[test]
fn memory_node_death_mid_recovery_recovers_against_promotion() {
    for &seed_op in &PINNED_SEEDS {
        let label = format!("mem-fail during recovery, seed {seed_op}");
        let cluster = Arc::new(build(None, true));
        let flight = cluster.flight.clone().expect("flight recorder installed");
        pandora::dump_on_panic(
            Some(&flight),
            "recovery-nested-memfail",
            std::panic::AssertUnwindSafe(|| {
                let (coord, _ep) = crash_transfer(&cluster, seed_op, 3, 7);
                // Kill the recoverer one verb into log recovery (always
                // fires), and arm node 2 to die before the takeover.
                cluster.fd.arm_recovery_crash(RecoveryCrashPlan {
                    step: RecoveryStep::LogRecovery,
                    at_verb: 1,
                });
                cluster.fd.arm_nested_mem_fail(NodeId(2));
                let qfd = QuorumFd::new(Arc::clone(&cluster.fd), 3);
                let outcome = qfd.detect_and_recover(coord, Duration::from_millis(3));
                let report = match outcome {
                    FdOutcome::Recovered(r) => r,
                    other => panic!("{label}: expected a recovery, got {other:?}"),
                };
                assert!(report.completed, "{label}: recovery incomplete");
                assert!(report.attempts > 1, "{label}: no takeover — mem-fail never injected");
                assert!(
                    cluster.ctx.dead_nodes().contains(&NodeId(2)),
                    "{label}: node 2 not dead after the nested failure"
                );
                let spans = flight.snapshot();
                assert!(
                    spans.iter().any(|s| s.name == "mem-fail-during-recovery"),
                    "{label}: compound failure not on the chaos track"
                );
                assert!(
                    spans.iter().any(|s| s.name == "mem-fail-promotion"),
                    "{label}: promotion not on the chaos track"
                );
                audit_clean(&cluster, &label);
                // With a replica gone mid-recovery the roll decision may
                // legitimately differ from the all-replicas-alive control
                // (§3.2.5: commit-ack is over *live* replicas) — but it
                // must still be one of the two atomic outcomes.
                let b = balances(&cluster);
                let applied = b[3] == INITIAL - AMOUNT && b[7] == INITIAL + AMOUNT;
                let rolled_back = b[3] == INITIAL && b[7] == INITIAL;
                assert!(applied || rolled_back, "{label}: torn outcome ({}, {})", b[3], b[7]);
                // The pair stays transactable on the promoted placement.
                let (mut fresh, _lf) = cluster.coordinator().unwrap();
                fresh
                    .run(|txn| {
                        let a = balance(&txn.read(ACCOUNTS, 3)?.expect("from"));
                        let b = balance(&txn.read(ACCOUNTS, 7)?.expect("to"));
                        txn.write(ACCOUNTS, 3, &value(a - 1))?;
                        txn.write(ACCOUNTS, 7, &value(b + 1))
                    })
                    .unwrap_or_else(|e| panic!("{label}: keys dead after promotion: {e}"));
            }),
        );
    }
}

/// Overlapping recoveries of the *same* coordinator: two RCs race the
/// full four steps concurrently. Owner-checked CASes and truncate-before-
/// unlock make every interleaving converge; the audit looks specifically
/// for double-steal (a lock released twice frees someone else's lock)
/// and double-notification (epoch bumped twice for one failure).
#[test]
fn overlapping_recoveries_of_the_same_coordinator_converge() {
    for &seed_op in &PINNED_SEEDS {
        let label = format!("overlapping recovery, seed {seed_op}");
        let control = control_balances(seed_op);
        let cluster = Arc::new(build(None, false));
        let (coord, ep) = crash_transfer(&cluster, seed_op, 3, 7);
        let epoch0 = cluster.ctx.failed.epoch();

        let barrier = Arc::new(Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let cluster = Arc::clone(&cluster);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let rc = RecoveryCoordinator::new(Arc::clone(&cluster.ctx))
                        .expect("spawn racing RC");
                    barrier.wait();
                    rc.recover_pandora(coord, ep)
                })
            })
            .collect();
        let reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(reports.iter().all(|r| r.completed), "{label}: a racing recovery failed");
        // Stray notification is idempotent: one failure, one epoch bump.
        assert_eq!(
            cluster.ctx.failed.epoch(),
            epoch0 + 1,
            "{label}: concurrent recoveries double-notified"
        );
        audit_clean(&cluster, &label);
        assert_eq!(
            balances(&cluster),
            control,
            "{label}: racing recoveries diverged from a single one"
        );
    }
}

/// Two distinct coordinators recovered concurrently while a recoverer
/// kill is armed: whichever recovery draws the doomed RC takes over;
/// both pairs must end atomic, unlocked, and conserved.
#[test]
fn concurrent_distinct_recoveries_with_a_killed_recoverer() {
    let cluster = Arc::new(build(None, false));
    let (c1, _e1) = crash_transfer(&cluster, 8, 3, 7);
    let (c2, _e2) = crash_transfer(&cluster, 8, 5, 9);
    cluster
        .fd
        .arm_recovery_crash(RecoveryCrashPlan { step: RecoveryStep::LogRecovery, at_verb: 1 });

    let barrier = Arc::new(Barrier::new(2));
    let handles: Vec<_> = [c1, c2]
        .into_iter()
        .map(|coord| {
            let cluster = Arc::clone(&cluster);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                cluster.fd.declare_failed(coord).expect("recovery runs")
            })
        })
        .collect();
    let reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(reports.iter().all(|r| r.completed), "a concurrent recovery failed");
    assert!(reports.iter().any(|r| r.attempts > 1), "the armed recoverer kill was never consumed");
    audit_clean(&cluster, "concurrent distinct recoveries");
    let b = balances(&cluster);
    for (from, to) in [(3usize, 7usize), (5, 9)] {
        let applied = b[from] == INITIAL - AMOUNT && b[to] == INITIAL + AMOUNT;
        let rolled_back = b[from] == INITIAL && b[to] == INITIAL;
        assert!(applied || rolled_back, "pair ({from},{to}) torn: ({}, {})", b[from], b[to]);
    }
}

/// Interleaved-scheduler crash sweep: a coordinator driving K > 1
/// transactions through the slot scheduler is killed at every verb
/// offset, leaving several log lanes and lock sets behind at once. The
/// batch mixes every write kind — transfers (update + update), an
/// account moved to a new key (delete + insert), part of a balance
/// split off into a new account (update + insert), an account closed
/// into another (delete + update) — so multi-lane batch log recovery
/// sees insert and delete records in lanes >= 1. One recovery pass must
/// resolve *all* of them: every request ends either where the
/// uninterrupted control run leaves it or where it started, an acked
/// request where the control leaves it, zero residual locks, replicas
/// agree, money conserved — cold (everything through the blocking
/// ladder) and warm (locks posted at admission). The sweep must hit at
/// least one state where multiple lanes held entries (the multi-lane
/// walk is actually exercised).
#[test]
fn interleaved_crash_sweep_recovers_all_inflight_txns() {
    const FRESH: u64 = N_ACCOUNTS; // first key no account is loaded at
    let build_interleaved = || {
        let cluster = SimCluster::builder(ProtocolKind::Pandora)
            .memory_nodes(3)
            .replication(2)
            .capacity_per_node(8 << 20)
            .table(TableDef::new(0, "kv", 16, 32, 8))
            .max_coord_slots(16)
            .config(
                SystemConfig::new(ProtocolKind::Pandora)
                    .with_inflight_txns(8)
                    .with_qp_stripes(2),
            )
            .build()
            .unwrap();
        cluster
            .bulk_load(ACCOUNTS, (0..N_ACCOUNTS).map(|k| (k, value(INITIAL))))
            .unwrap();
        cluster
    };
    let add = |d: i64| move |old: &[u8]| value(balance(old) + d);
    // The requests, and the keys each one writes.
    let footprints: [&[u64]; 5] = [&[0, 8], &[1, FRESH], &[2, 10], &[3, FRESH + 1], &[4, 12]];
    let batch = || {
        vec![
            TxnRequest::new()
                .update(ACCOUNTS, 0, add(-AMOUNT))
                .update(ACCOUNTS, 8, add(AMOUNT)),
            TxnRequest::new().delete(ACCOUNTS, 1).insert(ACCOUNTS, FRESH, value(INITIAL)),
            TxnRequest::new()
                .update(ACCOUNTS, 2, add(-AMOUNT))
                .update(ACCOUNTS, 10, add(AMOUNT)),
            TxnRequest::new().update(ACCOUNTS, 3, add(-AMOUNT)).insert(
                ACCOUNTS,
                FRESH + 1,
                value(AMOUNT),
            ),
            TxnRequest::new().delete(ACCOUNTS, 4).update(ACCOUNTS, 12, add(INITIAL)),
        ]
    };
    let keys = 0..FRESH + 2;
    let snapshot = |cluster: &SimCluster| -> Vec<Option<i64>> {
        keys.clone().map(|k| cluster.peek(ACCOUNTS, k).map(|v| balance(&v))).collect()
    };
    let initial = snapshot(&build_interleaved());
    let control = {
        let cluster = build_interleaved();
        let (mut co, _lease) = cluster.coordinator().unwrap();
        let results = co.run_interleaved(&batch());
        assert!(results.iter().all(|r| r.is_ok()), "control run had failures: {results:?}");
        snapshot(&cluster)
    };
    assert_ne!(initial, control);

    let mut max_logged = 0usize;
    let mut fired_cells = 0u64;
    for warm in [false, true] {
        for at_op in 1..=160u64 {
            let label = format!("interleaved crash at verb {at_op} (warm: {warm})");
            let cluster = build_interleaved();
            let (mut co, lease) = cluster.coordinator().unwrap();
            if warm {
                let reads = keys.clone().fold(TxnRequest::new(), |r, k| r.read(ACCOUNTS, k));
                assert!(co.run_interleaved(&[reads])[0].is_ok(), "{label}: warm-up failed");
            }
            let at_op = co.injector().ops_issued() + at_op;
            co.injector().arm(CrashPlan { at_op, mode: CrashMode::AfterOp });
            let results = co.run_interleaved(&batch());
            if !co.injector().is_crashed() {
                // Past the batch's last verb: everything committed cleanly.
                assert!(results.iter().all(|r| r.is_ok()), "{label}: clean run had failures");
                assert_eq!(snapshot(&cluster), control, "{label}: clean run diverges");
                break;
            }
            fired_cells += 1;
            co.gate().mark_dead();
            let report = cluster.fd.declare_failed(lease.coord_id).expect("recovery runs");
            assert!(report.completed, "{label}: recovery incomplete");
            max_logged = max_logged.max(report.logged_txns);
            cluster.fd.recovery().recycle_failed_ids();
            assert_eq!(cluster.ctx.failed.population(), 0, "{label}: failed ids not recycled");
            for k in keys.clone() {
                let replicas: Vec<_> = cluster
                    .replica_nodes(ACCOUNTS, k)
                    .into_iter()
                    .filter_map(|node| cluster.raw_slot(ACCOUNTS, k, node))
                    .collect();
                for (lock, _, _) in &replicas {
                    assert!(!lock.is_locked(), "{label}: residual lock on key {k}");
                }
                let live = |r: &(_, dkvs::VersionWord, Vec<u8>)| {
                    r.1.is_present().then(|| (r.1, r.2.clone()))
                };
                assert!(
                    replicas.windows(2).all(|w| live(&w[0]) == live(&w[1])),
                    "{label}: replicas diverge on key {k}"
                );
            }
            let after = snapshot(&cluster);
            let total: i64 = after.iter().flatten().sum();
            assert_eq!(total, N_ACCOUNTS as i64 * INITIAL, "{label}: money not conserved");
            for (r, footprint) in footprints.iter().enumerate() {
                let at = |state: &[Option<i64>]| -> Vec<Option<i64>> {
                    footprint.iter().map(|&k| state[k as usize]).collect()
                };
                let applied = at(&after) == at(&control);
                assert!(
                    applied || at(&after) == at(&initial),
                    "{label}: request {r} torn: {:?}",
                    at(&after)
                );
                // A transaction the scheduler acked as committed must
                // survive recovery (post-ack durability).
                if results[r].is_ok() {
                    assert!(applied, "{label}: acked request {r} rolled back by recovery");
                }
            }
        }
    }
    assert!(fired_cells >= 48, "sweep too short: only {fired_cells} cells crashed mid-flight");
    assert!(
        max_logged >= 2,
        "no crash state had multiple logged lanes (max {max_logged}) — the multi-lane \
         recovery walk was never exercised"
    );
}

/// Recovery's own verbs run under the chaos model: heavy transient
/// faults over the whole recovery path must delay but never change the
/// outcome.
#[test]
fn chaos_enabled_recovery_completes_and_converges() {
    let control = control_balances(8);
    let mut engaged = 0u64;
    for seed in [0xBEEF01u64, 0xBEEF02, 0xBEEF03, 0xBEEF04, 0xBEEF05] {
        let cluster = build(Some(ChaosConfig::heavy(seed)), true);
        let chaos = cluster.chaos.clone().expect("chaos installed");
        let (coord, _ep) = crash_transfer(&cluster, 8, 3, 7);
        // Chaos covers exactly the recovery (the workload ran clean, so
        // any divergence from control is recovery's fault).
        chaos.set_enabled(true);
        let report = cluster.fd.declare_failed(coord).expect("recovery runs");
        chaos.set_enabled(false);
        assert!(report.completed, "seed {seed:#x}: recovery never completed under chaos");
        engaged += cluster.ctx.resilience.snapshot().retries;
        audit_clean(&cluster, &format!("chaos seed {seed:#x}"));
        assert_eq!(
            balances(&cluster),
            control,
            "seed {seed:#x}: chaos changed the recovery decision"
        );
    }
    assert!(engaged > 0, "five heavy-chaos recoveries never engaged the retry machinery");
}

/// A posted verb whose completion reports an ambiguous timeout runs
/// again through the blocking ladder of its kind. Two cells are wanted,
/// and seeds are tried in order until both were hit — found from the verb
/// spans of the recovery, the only traffic under chaos, every timeout
/// ambiguous (dropped, or landed with the completion lost): a roll-back
/// in which that happens to a restore WRITE of a pre-image and to an
/// unlock CAS in the same run, and one in which it happens to the region
/// READ of a log copy, whose lanes must end truncated all the same. Every
/// cell on the way must converge too, on the first recoverer, with every
/// lane header of both log copies zero.
#[test]
fn ambiguous_timeouts_of_posted_restore_and_unlock_verbs_converge() {
    let control = control_balances(8);
    let (mut hit_restore_and_unlock, mut hit_region_read) = (false, false);
    for seed in 0..64u64 {
        if hit_restore_and_unlock && hit_region_read {
            break;
        }
        let label = format!("ambiguous chaos seed {seed}");
        let chaos_cfg = ChaosConfig {
            p_timeout: 0.15,
            p_ambiguous: 1.0,
            p_flap: 0.0,
            p_delay_spike: 0.0,
            ..ChaosConfig::heavy(seed)
        };
        let cluster = build(Some(chaos_cfg), true);
        let chaos = cluster.chaos.clone().expect("chaos installed");
        let flight = cluster.flight.clone().expect("flight recorder installed");
        let (coord, _ep) = crash_transfer(&cluster, 8, 3, 7);
        let t_chaos = flight.now_ns();
        chaos.set_enabled(true);
        let report = cluster.fd.declare_failed(coord).expect("recovery runs");
        chaos.set_enabled(false);
        assert!(report.completed && report.attempts == 1, "{label}: {report:?}");
        assert_eq!(report.rolled_back, 1, "{label}");
        let copies = cluster.raw_lane_headers(coord);
        assert_eq!(copies.len(), 2, "{label}: both log copies are readable");
        for (node, words) in copies {
            assert_eq!(words, [0; 8], "{label}: lane headers left set on {node:?}");
        }
        audit_clean(&cluster, &label);
        assert_eq!(balances(&cluster), control, "{label}: chaos changed the recovery decision");
        // A failed 16-byte WRITE is a pre-image going back (version and
        // truncation WRITEs are one word); a failed 32 KiB READ is a log
        // copy's region READ.
        let spans = flight.snapshot();
        let failed = |name: &str, bytes: u64| {
            spans.iter().any(|s| {
                let moved =
                    matches!(s.payload, pandora::Payload::Verb { bytes: b, .. } if b == bytes);
                s.start_ns >= t_chaos && !s.ok && s.name == name && moved
            })
        };
        hit_restore_and_unlock |= failed("WRITE", 16) && failed("CAS", 8);
        hit_region_read |= failed("READ", dkvs::LOG_REGION_BYTES);
    }
    assert!(hit_restore_and_unlock, "no seed timed out both a restore WRITE and an unlock CAS");
    assert!(hit_region_read, "no seed timed out the region READ of a log copy");
}

/// Zero-cost-off for the recovery path: a cluster with a chaos model
/// installed but never enabled performs a byte-identical recovery —
/// same verb counts on the wire, same final state.
#[test]
fn disabled_chaos_recovery_is_invisible() {
    let run = |cluster: SimCluster| {
        let (coord, _ep) = crash_transfer(&cluster, 8, 3, 7);
        let report = cluster.fd.declare_failed(coord).expect("recovery runs");
        assert!(report.completed);
        cluster.fd.recovery().recycle_failed_ids();
        (cluster.ctx.fabric.total_counters(), balances(&cluster))
    };
    let plain = run(build(None, false));
    let armed = run(build(Some(ChaosConfig::heavy(7)), false));
    assert_eq!(plain.0, armed.0, "recovery verb counts diverge with chaos installed but disabled");
    assert_eq!(plain.1, armed.1, "recovery outcome diverges with chaos installed but disabled");
}
