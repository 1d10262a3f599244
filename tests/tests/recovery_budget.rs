//! What a compute-failure recovery costs, exactly, and that it may be
//! run from several threads at once.
//!
//! Log recovery posts each of its phases and takes one completion
//! barrier per phase (DESIGN §5), so a recovery's cost is a verb count
//! and a barrier count — both deterministic for a given crash state, and
//! both on the [`pandora::RecoveryReport`]. The budget tests pin them for
//! the three states a 4-write transaction can die in and for a scheduler
//! coordinator that dies with all eight log lanes written; one verb or
//! one barrier more fails them on any host. Truncation zeroes only the
//! lane headers the region READs found set, so recovery pays for what the
//! failure left: nothing logged is two READs and one barrier (the pins
//! came down from 18/2, 50/5, 34/4 and 82/5 when truncation stopped
//! zeroing all sixteen headers blind). The other half of the budget is
//! the link-termination fan-out, once per server however many
//! coordinator-ids it hosted. The shared-RC test drives
//! the FD's resident recovery coordinator — one set of queue pairs —
//! from the monitor thread and four `declare_failed` callers at once.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dkvs::{TableDef, TableId};
use pandora::{ComputeNode, ProtocolKind, RecoveryReport, SimCluster, SystemConfig, TxnRequest};
use rdma_sim::{CrashMode, CrashPlan, LatencyModel};

const ACCOUNTS: TableId = TableId(0);
const N_ACCOUNTS: u64 = 16;
const INITIAL: i64 = 1_000;
const AMOUNT: i64 = 7;
/// f+1: replicas of an object, and log copies of a coordinator.
const REPLICAS: u64 = 2;
/// The roll-back of a logged, unapplied 4-write transaction.
const ROLLBACK_VERBS: u64 = 36;

fn value(b: i64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[0..8].copy_from_slice(&b.to_le_bytes());
    v
}

fn balance(v: &[u8]) -> i64 {
    i64::from_le_bytes(v[0..8].try_into().unwrap())
}

/// Three memory nodes, replication 2, sixteen accounts, sixteen log slots.
fn build(config: SystemConfig, rtt: Duration) -> SimCluster {
    build_with_slots(config, rtt, 16)
}

fn build_with_slots(config: SystemConfig, rtt: Duration, coord_slots: u32) -> SimCluster {
    let cluster = SimCluster::builder(ProtocolKind::Pandora)
        .memory_nodes(3)
        .replication(2)
        .capacity_per_node(8 << 20)
        .table(TableDef::new(0, "kv", 16, 32, 8))
        .max_coord_slots(coord_slots)
        .latency(LatencyModel { rtt, ns_per_kib: 0 })
        .config(config)
        .build()
        .unwrap();
    cluster
        .bulk_load(ACCOUNTS, (0..N_ACCOUNTS).map(|k| (k, value(INITIAL))))
        .unwrap();
    cluster
}

fn balances(cluster: &SimCluster) -> Vec<i64> {
    (0..N_ACCOUNTS)
        .map(|k| balance(&cluster.peek(ACCOUNTS, k).unwrap_or_else(|| panic!("account {k}"))))
        .collect()
}

fn assert_no_locks(cluster: &SimCluster, label: &str) {
    for k in 0..N_ACCOUNTS {
        for node in cluster.replica_nodes(ACCOUNTS, k) {
            let (lock, _, _) = cluster.raw_slot(ACCOUNTS, k, node).expect("account slot");
            assert!(!lock.is_locked(), "{label}: residual lock on account {k} at {node:?}");
        }
    }
}

/// Lane headers of `coord`'s log copies whose state word is set (raw
/// reads). The failure leaves this many; recovery must leave none.
fn set_lane_headers(cluster: &SimCluster, coord: u16) -> u64 {
    let copies = cluster.raw_lane_headers(coord);
    assert_eq!(copies.len() as u64, REPLICAS, "both log copies are readable");
    copies.iter().flat_map(|(_, words)| words).filter(|&&w| w != 0).count() as u64
}

/// One coordinator runs one 4-write transaction on the classic engine
/// (log lane 0) and dies `crash_after` verbs into it; the FD's resident
/// RC recovers it. Warm layout of the transaction: verbs 1–8 lock the
/// four accounts (CAS + fused re-read each), 9–10 write the two log
/// copies, 11–26 apply (value and version on both replicas of each
/// account), 27–30 unlock.
fn recover_four_write_txn(crash_after: u64, rtt: Duration) -> RecoveryReport {
    let cluster = build(SystemConfig::new(ProtocolKind::Pandora), rtt);
    let (mut co, lease) = cluster.coordinator().unwrap();
    co.run(|txn| (0..4).try_for_each(|k| txn.read(ACCOUNTS, k).map(|_| ())))
        .unwrap(); // warm
    let base = co.injector().ops_issued();
    co.injector()
        .arm(CrashPlan { at_op: base + crash_after, mode: CrashMode::AfterOp });
    {
        let mut txn = co.begin();
        let _ = (0..4)
            .try_for_each(|k| txn.write(ACCOUNTS, k, &value(INITIAL + AMOUNT)))
            .and_then(|()| txn.commit());
    }
    assert!(co.injector().is_crashed(), "crash offset {crash_after} did not fire");
    co.gate().mark_dead();
    // Logged at all ⇔ the lane-0 header of each copy is set: what
    // truncation has to zero, and all it zeroes.
    let logged = (crash_after >= 10) as u64 * REPLICAS;
    assert_eq!(set_lane_headers(&cluster, lease.coord_id), logged, "crash after {crash_after}");
    let report = cluster.fd.declare_failed(lease.coord_id).expect("recovery runs");
    assert!(report.completed);
    assert_eq!(set_lane_headers(&cluster, lease.coord_id), 0, "crash after {crash_after}");
    cluster.fd.recovery().recycle_failed_ids();
    assert_no_locks(&cluster, &format!("crash after verb {crash_after}"));
    report
}

#[test]
fn a_four_write_transaction_recovers_within_its_exact_budget() {
    // (a) Frozen holding its four locks, nothing logged: the two region
    // READs find every lane header zero, so there is nothing to truncate
    // and no second barrier. The locks are NotLogged strays — stealing
    // releases them, not log recovery.
    let r = recover_four_write_txn(8, Duration::ZERO);
    assert_eq!((r.logged_txns, r.rolled_forward, r.rolled_back), (0, 0, 0));
    assert_eq!((r.verbs, r.barriers), (REPLICAS, 1), "nothing logged");
    assert_eq!(r.link_fanouts, 1, "a server's first coordinator pays the fan-out");

    // (b) Both log copies written, nothing applied: classify reads the
    // version on both replicas of the four accounts and the four lock
    // words, the roll-back writes value and version on all eight
    // replicas, the lane-0 header of each log copy is zeroed, four CASes
    // release the locks.
    let classify = 4 * REPLICAS + 4;
    let rolled_back = REPLICAS + classify + 4 * REPLICAS * 2 + REPLICAS + 4;
    assert_eq!(rolled_back, ROLLBACK_VERBS);
    let r = recover_four_write_txn(10, Duration::ZERO);
    assert_eq!((r.logged_txns, r.rolled_forward, r.rolled_back), (1, 0, 1));
    assert_eq!((r.verbs, r.barriers), (rolled_back, 5), "logged, rolled back");

    // (c) Every replica updated, locks still held: rolled forward —
    // nothing to restore, so no restore barrier either: 20 verbs.
    let r = recover_four_write_txn(26, Duration::ZERO);
    assert_eq!((r.logged_txns, r.rolled_forward, r.rolled_back), (1, 1, 0));
    assert_eq!((r.verbs, r.barriers), (rolled_back - 4 * REPLICAS * 2, 4), "rolled forward");
}

/// The five barriers are five round trips: at a 1 ms modeled round trip
/// the roll-back of (b) finishes in under eight of them. Issued one verb
/// at a time its 36 verbs would take 36 ms. The counts hold on every run;
/// the wall-clock bound is given three tries, for a host that takes the
/// core away mid-recovery.
#[test]
fn a_rollback_costs_round_trips_per_phase_not_per_verb() {
    let rtt = Duration::from_millis(1);
    let mut took = Vec::new();
    for _ in 0..3 {
        let r = recover_four_write_txn(10, rtt);
        assert_eq!((r.rolled_back, r.verbs, r.barriers), (1, ROLLBACK_VERBS, 5));
        assert!(r.log_recovery >= 5 * rtt, "five barriers cannot beat five round trips");
        took.push(r.log_recovery);
        if r.log_recovery < 8 * rtt {
            return;
        }
    }
    panic!("log recovery took {took:?} for 5 barriers at a {rtt:?} round trip");
}

/// A scheduler coordinator dies with all eight log lanes written and
/// nothing applied: eight transactions to roll back, still five barriers.
#[test]
fn eight_logged_lanes_recover_in_the_same_five_barriers() {
    let config = SystemConfig::new(ProtocolKind::Pandora)
        .with_inflight_txns(8)
        .with_qp_stripes(2);
    let reqs: Vec<TxnRequest> = (0..8)
        .map(|k| TxnRequest::new().update(ACCOUNTS, k, |old| value(balance(old) + AMOUNT)))
        .collect();
    // The slots move through the pipeline in step, so the first crash
    // point that leaves eight logged lanes is the eighth lane's first
    // log copy landing — before any slot has applied anything.
    let report = (1..=64u64)
        .find_map(|at_op| {
            let cluster = build(config, Duration::ZERO);
            let (mut co, lease) = cluster.coordinator().unwrap();
            co.injector().arm(CrashPlan { at_op, mode: CrashMode::AfterOp });
            co.run_interleaved(&reqs);
            assert!(co.injector().is_crashed(), "the batch ended before verb {at_op}");
            co.gate().mark_dead();
            let set_headers = set_lane_headers(&cluster, lease.coord_id);
            let report = cluster.fd.declare_failed(lease.coord_id).expect("recovery runs");
            assert!(report.completed);
            assert_eq!(set_lane_headers(&cluster, lease.coord_id), 0, "crash after {at_op}");
            if report.logged_txns < 8 {
                return None;
            }
            assert_eq!(set_headers, 8 * REPLICAS - 1, "the eighth lane has one copy");
            cluster.fd.recovery().recycle_failed_ids();
            assert_no_locks(&cluster, "eight logged lanes");
            assert_eq!(balances(&cluster), vec![INITIAL; N_ACCOUNTS as usize]);
            Some(report)
        })
        .expect("no crash point left eight logged lanes");
    assert_eq!((report.rolled_forward, report.rolled_back), (0, 8));
    // One record per lane: 16 version READs + 8 lock READs, 32 restore
    // WRITEs, 8 CASes — and fifteen truncations, not sixteen: the crash
    // landed on the eighth lane's first log copy, so its second copy was
    // never written and its header is left alone: 81 verbs.
    let truncations = 8 * REPLICAS - 1;
    let verbs = REPLICAS + (8 * REPLICAS + 8) + 8 * REPLICAS * 2 + truncations + 8;
    assert_eq!((report.verbs, report.barriers), (verbs, 5));
}

/// Active-link termination is per compute server: sixty-four
/// coordinator-ids behind one endpoint are recovered with exactly one
/// RPC fan-out, issued by the first, and every later recovery finds the
/// endpoint already fenced on all three memory nodes.
#[test]
fn sixty_four_coordinators_of_one_server_share_one_link_termination() {
    let cluster = build_with_slots(SystemConfig::new(ProtocolKind::Pandora), Duration::ZERO, 80);
    let mut server = ComputeNode::new(Arc::clone(&cluster.ctx), Arc::clone(&cluster.fd));
    // Every fourth coordinator dies holding a lock (nothing logged).
    for i in 0..64u64 {
        let (mut co, _lease) = server.spawn_coordinator().unwrap();
        if i % 4 == 0 {
            let mut txn = co.begin();
            txn.write(ACCOUNTS, i / 4, &value(INITIAL + AMOUNT)).unwrap();
            std::mem::forget(txn); // the server crashes with the txn open
        }
        std::mem::forget(co);
    }
    server.crash();
    let reports = server.recover_all();
    assert_eq!(reports.len(), 64);
    assert!(reports.iter().all(|r| r.completed && r.attempts == 1));
    assert_eq!(reports[0].link_fanouts, 1, "the first recovery fences the server");
    assert_eq!(reports.iter().map(|r| r.link_fanouts).sum::<u32>(), 1);
    assert_eq!(reports.iter().map(|r| (r.verbs, r.barriers)).max(), Some((REPLICAS, 1)));
    cluster.fd.recovery().recycle_failed_ids();
    assert_no_locks(&cluster, "sixty-four coordinators");
    assert_eq!(balances(&cluster), vec![INITIAL; N_ACCOUNTS as usize]);
}

/// Crash offsets of the eight transfers the shared-RC test freezes:
/// locked only, logged, partially applied, applied.
const FROZEN_AT: [u64; 8] = [2, 8, 14, 11, 5, 8, 14, 10];

/// Freeze one coordinator per entry of [`FROZEN_AT`], coordinator `i`
/// mid-transfer between accounts `2i` and `2i + 1`.
fn freeze_eight(cluster: &SimCluster) -> Vec<pandora::CoordinatorLease> {
    FROZEN_AT
        .iter()
        .enumerate()
        .map(|(i, &at_op)| {
            let (from, to) = (2 * i as u64, 2 * i as u64 + 1);
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
            lease
        })
        .collect()
}

/// The resident RC's queue pairs are shared: while the monitor thread
/// recovers four coordinators it detected, four callers declare four
/// others failed at the same instant. Every recovery must see exactly
/// its own completions — a barrier that drained a queue pair wholesale
/// (`wait_all`, `poll`) would take a neighbour's and leave that
/// neighbour waiting on a work id that is gone.
#[test]
fn the_resident_rc_serves_the_monitor_and_four_callers_at_once() {
    let rtt = Duration::from_micros(200);
    let config = || {
        let mut c = SystemConfig::new(ProtocolKind::Pandora);
        c.fd_timeout = Duration::from_millis(5);
        c
    };

    // Control: the same eight crash states, recovered one at a time.
    let control = build(config(), rtt);
    for lease in freeze_eight(&control) {
        assert!(control.fd.declare_failed(lease.coord_id).expect("control recovery").completed);
    }
    control.fd.recovery().recycle_failed_ids();
    let control = balances(&control);

    let cluster = Arc::new(build(config(), rtt));
    let leases = freeze_eight(&cluster);
    let declared = &leases[..4];
    let start = Arc::new(Barrier::new(declared.len() + 1));
    let callers: Vec<_> = declared
        .iter()
        .map(|lease| {
            let (cluster, start, lease) = (Arc::clone(&cluster), Arc::clone(&start), lease.clone());
            std::thread::spawn(move || {
                start.wait();
                // `None`: the host kept this thread off the core for a
                // whole FD timeout and the monitor got there first — its
                // report is in the FD's list all the same.
                lease.beat();
                cluster.fd.declare_failed(lease.coord_id);
            })
        })
        .collect();

    // The monitor finds the four silent coordinators; the other four
    // keep beating until it is inside a recovery, then all four callers
    // go at once.
    let monitor = cluster.fd.start_monitor();
    let deadline = Instant::now() + Duration::from_secs(30);
    while cluster.ctx.recoveries_in_flight.load(Ordering::Acquire) == 0 {
        assert!(Instant::now() < deadline, "the monitor never detected the silent coordinators");
        declared.iter().for_each(|lease| lease.beat());
        std::thread::yield_now();
    }
    start.wait();
    for caller in callers {
        caller.join().expect("a declare_failed caller panicked");
    }
    while cluster.fd.reports().len() < leases.len() {
        assert!(Instant::now() < deadline, "the monitor never finished its recoveries");
        std::thread::yield_now();
    }
    monitor.stop();
    let reports = cluster.fd.reports();
    for lease in &leases {
        let n = reports.iter().filter(|r| r.coord == lease.coord_id).count();
        assert_eq!(n, 1, "coordinator {} recovered {n} times", lease.coord_id);
    }

    assert_eq!(reports.len(), leases.len());
    for r in &reports {
        assert!(r.completed && r.attempts == 1, "coordinator {}: {r:?}", r.coord);
        assert_eq!(r.logged_txns, r.rolled_forward + r.rolled_back, "coordinator {}", r.coord);
    }
    cluster.fd.recovery().recycle_failed_ids();
    assert_eq!(cluster.ctx.failed.population(), 0, "failed ids not recycled");
    assert_no_locks(&cluster, "shared RC");
    assert_eq!(balances(&cluster), control, "decisions diverge from one-at-a-time recovery");
}
