//! The interleaved-scheduler acceptance gate and its correctness
//! smoke tests: one logical coordinator keeping `inflight_txns`
//! independent commits in flight over a striped fabric must beat the
//! one-at-a-time classic engine by at least 2x committed throughput at
//! a 2 µs modeled RTT (low contention, warm caches). The timing gate is
//! release-only (debug builds measure the compiler, not the protocol);
//! the semantic tests run everywhere.

use std::time::{Duration, Instant};

use dkvs::{TableDef, TableId};
use pandora::{
    AbortReason, Access, Coordinator, ProtocolKind, SimCluster, SystemConfig, Txn, TxnError,
    TxnRequest,
};
use rdma_sim::LatencyModel;

const KV: TableId = TableId(0);
const VALUE_LEN: usize = 40;

fn value(n: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_LEN];
    v[0..8].copy_from_slice(&n.to_le_bytes());
    v
}

fn counter(v: &[u8]) -> u64 {
    u64::from_le_bytes(v[0..8].try_into().unwrap())
}

fn bump(old: &[u8]) -> Vec<u8> {
    value(counter(old) + 1)
}

fn build(config: SystemConfig, rtt_us: u64) -> SimCluster {
    let mut b = SimCluster::builder(ProtocolKind::Pandora)
        .memory_nodes(3)
        .replication(2)
        .capacity_per_node(16 << 20)
        .table(TableDef::sized_for(0, "kv", VALUE_LEN, 4096))
        .max_coord_slots(64)
        .config(config);
    if rtt_us > 0 {
        b = b.latency(LatencyModel { rtt: Duration::from_micros(rtt_us), ns_per_kib: 0 });
    }
    let cluster = b.build().unwrap();
    cluster.bulk_load(KV, (0..2048u64).map(|k| (k, value(0)))).unwrap();
    cluster
}

/// A 4-update counter-increment request over `[base, base+4)`.
fn increment_req(base: u64) -> TxnRequest {
    let mut req = TxnRequest::new();
    for k in base..base + 4 {
        req = req.update(KV, k, bump);
    }
    req
}

/// First key of transaction `i` of `n` in `round`: disjoint 4-key
/// spans (low contention) within a 512-key working set.
fn span_base(n: usize, round: u64, i: u64) -> u64 {
    ((round * n as u64 + i) * 4) % 512
}

fn batch(n: usize, round: u64) -> Vec<TxnRequest> {
    (0..n as u64).map(|i| increment_req(span_base(n, round, i))).collect()
}

fn warm(co: &mut Coordinator) {
    for base in (0..512u64).step_by(4) {
        let r = co.run_interleaved(&[increment_req(base)]);
        assert!(r.into_iter().all(|x| x.is_ok()), "warmup commit failed");
    }
}

// ---------------------------------------------------------------------
// Semantics
// ---------------------------------------------------------------------

/// Interleaved batches commit with classic semantics: every update
/// lands exactly once, reads return committed values, nothing is left
/// locked or logged.
#[test]
fn interleaved_batch_commits_every_update_exactly_once() {
    let config = SystemConfig::new(ProtocolKind::Pandora)
        .with_inflight_txns(8)
        .with_qp_stripes(4);
    let cluster = build(config, 0);
    let (mut co, _lease) = cluster.coordinator().unwrap();
    let rounds = 16u64;
    for round in 0..rounds {
        let reqs = batch(8, round);
        let (outcomes, _aborts) = co.run_interleaved_retrying(&reqs).expect("batch commits");
        assert_eq!(outcomes.len(), 8);
    }
    // 16 rounds x 8 txns x 4 increments, uniformly over keys 0..512.
    let expected_total = rounds * 8 * 4;
    let total: u64 = (0..512u64).map(|k| counter(&cluster.peek(KV, k).unwrap())).sum();
    assert_eq!(total, expected_total, "updates lost or duplicated");
    for k in 0..512u64 {
        for node in cluster.replica_nodes(KV, k) {
            let (lock, _, _) = cluster.raw_slot(KV, k, node).expect("slot present");
            assert!(!lock.is_locked(), "residual lock on key {k} node {node:?}");
        }
    }
}

/// Reads in a request observe committed state, and the outcome vector
/// lines up with the request's read ops in order.
#[test]
fn interleaved_reads_return_committed_values_in_op_order() {
    let config = SystemConfig::new(ProtocolKind::Pandora)
        .with_inflight_txns(4)
        .with_qp_stripes(2);
    let cluster = build(config, 0);
    let (mut co, _lease) = cluster.coordinator().unwrap();
    let setup: Vec<TxnRequest> = (0..4u64)
        .map(|i| TxnRequest::new().write(KV, 100 + i, value(1000 + i)))
        .collect();
    co.run_interleaved_retrying(&setup).expect("setup commits");
    let reads: Vec<TxnRequest> = (0..4u64)
        .map(|i| TxnRequest::new().read(KV, 100 + i).read(KV, 103 - i))
        .collect();
    let (outcomes, _aborts) = co.run_interleaved_retrying(&reads).expect("reads commit");
    for (i, out) in outcomes.iter().enumerate() {
        let i = i as u64;
        assert_eq!(out.reads.len(), 2);
        assert_eq!(counter(out.reads[0].as_ref().unwrap()), 1000 + i);
        assert_eq!(counter(out.reads[1].as_ref().unwrap()), 1000 + (3 - i));
    }
    // A read of an absent key is None, not an abort.
    let miss = co.run_interleaved(&[TxnRequest::new().read(KV, 3999)]);
    assert!(miss[0].as_ref().unwrap().reads[0].is_none());
}

/// Intra-batch write-write conflicts resolve like independent
/// coordinators: the retrying wrapper converges, and the contended
/// counter reflects every transaction exactly once.
#[test]
fn interleaved_conflicts_on_one_key_all_commit_exactly_once() {
    let config = SystemConfig::new(ProtocolKind::Pandora)
        .with_inflight_txns(8)
        .with_qp_stripes(4);
    let cluster = build(config, 0);
    let (mut co, _lease) = cluster.coordinator().unwrap();
    let reqs: Vec<TxnRequest> = (0..8)
        .map(|_| TxnRequest::new().update(KV, 7, |old| value(counter(old) + 1)))
        .collect();
    let (outcomes, _aborts) = co.run_interleaved_retrying(&reqs).expect("contended batch commits");
    assert_eq!(outcomes.len(), 8);
    assert_eq!(counter(&cluster.peek(KV, 7).unwrap()), 8, "lost update under contention");
}

/// A read that meets a *sibling slot's* lock aborts at once: the
/// sibling cannot advance while the scheduler thread re-reads, so
/// waiting out the lock only burns `read_lock_retries` round trips with
/// every slot stalled — the mechanism behind the hot-key livelock of
/// `run_interleaved_retrying`.
#[test]
fn read_meeting_a_sibling_slots_lock_aborts_at_once() {
    let config = SystemConfig::new(ProtocolKind::Pandora)
        .with_inflight_txns(2)
        .with_qp_stripes(2);
    let cluster = build(config, 0);
    let (mut co, _lease) = cluster.coordinator().unwrap();
    // A updates key 5, B reads it. Both are admitted in one pass, so A's
    // eagerly executed lock CAS is what B's read finds.
    let pair = || {
        vec![
            TxnRequest::new().update(KV, 5, |old| value(counter(old) + 1)),
            TxnRequest::new().read(KV, 5),
        ]
    };
    co.run_interleaved_retrying(&pair()).expect("warm-up commits");
    let reads = |co: &Coordinator| co.op_counters().iter().map(|(_, s)| s.reads).sum::<u64>();

    let before = reads(&co);
    let results = co.run_interleaved(&pair());
    assert!(results[0].is_ok(), "the writer commits: {:?}", results[0]);
    assert_eq!(
        results[1],
        Err(TxnError::Aborted(AbortReason::LockConflict)),
        "the reader gives way to its sibling"
    );
    // A's fused under-lock READ and B's one posted READ — not the 64
    // blocking re-reads of a spun-out retry budget.
    let spent = reads(&co) - before;
    assert!(spent <= 4, "the aborted read cost {spent} READs");

    let (outcomes, aborts) = co.run_interleaved_retrying(&pair()).expect("both commit");
    assert_eq!(aborts, 1, "one resubmission of the reader");
    assert_eq!(counter(outcomes[1].reads[0].as_ref().unwrap()), 3);
    assert_eq!(counter(&cluster.peek(KV, 5).unwrap()), 3);
}

/// Two requests that abort each other — each reads the key the other
/// locks — do so again on every pass that admits them together: posted
/// effects are eager and resubmission keeps the order. The retrying
/// wrapper must follow a pass that committed nothing with a pass that
/// admits one request at a time. Bounded by the abort count, not by a
/// time-out: without that rule this test never returns.
#[test]
fn crossing_read_update_pair_commits() {
    let bump = |old: &[u8]| value(counter(old) + 1);
    for stripes in [1, 4] {
        let config = SystemConfig::new(ProtocolKind::Pandora)
            .with_inflight_txns(2)
            .with_qp_stripes(stripes);
        let cluster = build(config, 0);
        let (mut co, _lease) = cluster.coordinator().unwrap();
        let crossing = || {
            vec![
                TxnRequest::new().read(KV, 5).update(KV, 6, bump),
                TxnRequest::new().read(KV, 6).update(KV, 5, bump),
            ]
        };
        // Warm the address cache, so that both requests post at admission.
        for req in crossing() {
            co.run_interleaved_retrying(&[req]).expect("warm-up commits");
        }
        let (outcomes, aborts) = co.run_interleaved_retrying(&crossing()).expect("both commit");
        assert_eq!(outcomes.len(), 2);
        assert!(
            aborts <= 2,
            "{stripes} stripes: {aborts} aborts for a pair that commits one by one"
        );
        assert_eq!(counter(&cluster.peek(KV, 5).unwrap()), 2);
        assert_eq!(counter(&cluster.peek(KV, 6).unwrap()), 2);
    }
}

/// With interleaving off the request entry points run each request as a
/// `Txn`, and end in the same state as the closure API — updates,
/// inserts and deletes alike. With it on, a slot batch of the same
/// requests ends there too.
#[test]
fn request_path_with_interleaving_off_matches_the_closure_path() {
    // Counters of the loaded keys (`None` = deleted), then the inserted.
    let state = |cluster: &SimCluster| -> Vec<Option<u64>> {
        let keys = (0..512u64).chain(3000..3008);
        keys.map(|k| cluster.peek(KV, k).map(|v| counter(&v))).collect()
    };
    let baseline = SystemConfig::new(ProtocolKind::Pandora);
    let by_closures = {
        let cluster = build(baseline, 0);
        let (mut co, _lease) = cluster.coordinator().unwrap();
        for base in (0..32u64).map(|i| (i * 4) % 512) {
            co.run(|txn| {
                for k in base..base + 4 {
                    let old = counter(&txn.read(KV, k)?.expect("loaded"));
                    txn.write(KV, k, &value(old + 1))?;
                }
                Ok(())
            })
            .expect("commits");
        }
        for i in 0..8u64 {
            co.run(|txn| {
                txn.insert(KV, 3000 + i, &value(i))?;
                txn.delete(KV, 256 + i)
            })
            .expect("commits");
        }
        state(&cluster)
    };
    let churn = || -> Vec<TxnRequest> {
        (0..8u64)
            .map(|i| TxnRequest::new().insert(KV, 3000 + i, value(i)).delete(KV, 256 + i))
            .collect()
    };
    let by_requests = |config: SystemConfig| {
        let cluster = build(config, 0);
        let (mut co, _lease) = cluster.coordinator().unwrap();
        for round in 0..8u64 {
            co.run_interleaved_retrying(&batch(4, round)).expect("commits");
        }
        co.run_interleaved_retrying(&churn()).expect("commits");
        state(&cluster)
    };
    assert_eq!(by_closures, by_requests(baseline), "request path diverges from the closure path");
    let slots = baseline.with_inflight_txns(4).with_qp_stripes(2);
    assert_eq!(by_closures, by_requests(slots), "slot batch diverges from the closure path");
}

/// One transaction machine, two drivers: the same transaction issues
/// the same verbs — execute phase and commit pipeline — whether a `Txn`
/// drives it to completion or it runs as the only request of a 2-slot
/// scheduler, cold (probe path) and warm (lock CAS fused with the
/// under-lock READ); the slot, whose log lane is shared, adds only the
/// lane's truncation (f+1 WRITEs of one word).
#[test]
fn txn_and_scheduler_slot_issue_the_same_commit_verbs() {
    type Shape = (&'static str, fn(&mut Txn<'_>) -> Result<(), TxnError>, fn() -> TxnRequest);
    let shapes: [Shape; 5] = [
        (
            "update",
            |txn| (0..4u64).try_for_each(|k| txn.write(KV, k, &value(2))),
            || (0..4u64).fold(TxnRequest::new(), |r, k| r.write(KV, k, value(2))),
        ),
        (
            "insert",
            |txn| (3000..3002u64).try_for_each(|k| txn.insert(KV, k, &value(2))),
            || (3000..3002u64).fold(TxnRequest::new(), |r, k| r.insert(KV, k, value(2))),
        ),
        (
            "delete",
            |txn| (10..12u64).try_for_each(|k| txn.delete(KV, k)),
            || (10..12u64).fold(TxnRequest::new(), |r, k| r.delete(KV, k)),
        ),
        (
            "read-then-write",
            |txn| {
                txn.read(KV, 20)?;
                txn.write(KV, 20, &value(2))?;
                txn.read(KV, 21).map(|_| ())
            },
            || TxnRequest::new().read(KV, 20).write(KV, 20, value(2)).read(KV, 21),
        ),
        (
            // The interactive spelling of `Update`: lock-read, compute,
            // write. The write restages the locked entry at no verb.
            "read-modify-write",
            |txn| {
                let rows = [0, 1, 2, 3].map(|k| (KV, k, Access::ForUpdate));
                let old = txn.fetch(&rows)?;
                (0..4u64).zip(old).try_for_each(|(k, v)| txn.write(KV, k, &bump(&v.unwrap())))
            },
            || (0..4u64).fold(TxnRequest::new(), |r, k| r.update(KV, k, bump)),
        ),
    ];
    // Warm = the address cache knows every loaded key the shapes touch.
    let warm_up = |co: &mut Coordinator| {
        co.run(|txn| {
            [0, 1, 2, 3, 10, 11, 20, 21].iter().try_for_each(|&k| txn.read(KV, k).map(drop))
        })
        .expect("warm-up commits");
    };
    let two_slots = SystemConfig::new(ProtocolKind::Pandora).with_inflight_txns(2);
    for (name, body, request) in shapes {
        for warm in [false, true] {
            let measure = |config: SystemConfig, run: &dyn Fn(&mut Coordinator)| {
                let cluster = build(config, 0);
                let (mut co, _lease) = cluster.coordinator().unwrap();
                if warm {
                    warm_up(&mut co);
                }
                let before = cluster.ctx.fabric.total_counters();
                run(&mut co);
                (before, cluster.ctx.fabric.total_counters())
            };
            let (t0, t1) = measure(SystemConfig::new(ProtocolKind::Pandora), &|co| {
                co.run(body).expect("commits");
            });
            let (s0, s1) = measure(two_slots, &|co| {
                co.run_interleaved_retrying(&[request()]).expect("commits");
            });
            let label = format!("{name}, {}", if warm { "warm" } else { "cold" });
            if name == "update" && warm {
                // The pinned warm layout (DESIGN.md §10), replication 2:
                // per write one lock CAS fused with one under-lock READ;
                // f+1 = 2 log WRITEs; value + version on both replicas of
                // each object; 4 unlocks.
                assert_eq!(t1.cas - t0.cas, 4);
                assert_eq!(t1.reads - t0.reads, 4);
                assert_eq!(t1.writes - t0.writes, 2 + 4 * 2 * 2 + 4);
            }
            assert_eq!(s1.cas - s0.cas, t1.cas - t0.cas, "{label}: CAS");
            assert_eq!(s1.reads - s0.reads, t1.reads - t0.reads, "{label}: READs");
            assert_eq!(s1.bytes_read - s0.bytes_read, t1.bytes_read - t0.bytes_read, "{label}");
            assert_eq!(s1.flushes - s0.flushes, t1.flushes - t0.flushes, "{label}: flushes");
            assert_eq!(
                s1.writes - s0.writes,
                t1.writes - t0.writes + 2,
                "{label}: f+1 lane truncations"
            );
            assert_eq!(
                s1.bytes_written - s0.bytes_written,
                t1.bytes_written - t0.bytes_written + 2 * 8,
                "{label}: a truncation zeroes one word"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The throughput gate (release only)
// ---------------------------------------------------------------------

/// Committed transactions per second over 24 rounds of 16 disjoint
/// 4-increment transactions, `run_round` committing one round.
fn commit_rate(config: SystemConfig, run_round: impl Fn(&mut Coordinator, u64) -> u64) -> f64 {
    let cluster = build(config, 2);
    let (mut co, _lease) = cluster.coordinator().unwrap();
    warm(&mut co);
    let t0 = Instant::now();
    let committed: u64 = (0..24u64).map(|round| run_round(&mut co, round)).sum();
    committed as f64 / t0.elapsed().as_secs_f64()
}

const PER_BATCH: usize = 16;

/// A round through the request path.
fn round_of_requests(co: &mut Coordinator, round: u64) -> u64 {
    let (outcomes, _aborts) =
        co.run_interleaved_retrying(&batch(PER_BATCH, round)).expect("batch commits");
    outcomes.len() as u64
}

/// The same round one transaction, and one operation, at a time: each
/// key read, then written — ten barriers a transaction (eight to
/// execute, log, apply; twelve when the gate was set, before the apply
/// tiers merged and the unlock stopped waiting). (The width-1 request
/// path posts its declared list whole and takes three; it is not
/// one-at-a-time any more.)
fn round_of_serial_txns(co: &mut Coordinator, round: u64) -> u64 {
    for i in 0..PER_BATCH as u64 {
        let base = span_base(PER_BATCH, round, i);
        co.run(|txn| {
            (base..base + 4).try_for_each(|k| {
                let old = txn.read(KV, k)?.expect("loaded key");
                txn.write(KV, k, &bump(&old))
            })
        })
        .expect("commits");
    }
    PER_BATCH as u64
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate needs an optimized build")]
fn interleaved_commit_rate_at_least_2x_classic_at_2us_rtt() {
    let classic = commit_rate(SystemConfig::new(ProtocolKind::Pandora), round_of_serial_txns);
    let interleaved = commit_rate(
        SystemConfig::new(ProtocolKind::Pandora)
            .with_inflight_txns(8)
            .with_qp_stripes(4),
        round_of_requests,
    );
    eprintln!("classic {classic:.0} txn/s, interleaved {interleaved:.0} txn/s");
    assert!(
        interleaved >= classic * 2.0,
        "interleaved scheduler hides too little phase latency: {interleaved:.0} txn/s vs classic \
         {classic:.0} txn/s (< 2x)"
    );
}
