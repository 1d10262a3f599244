//! Wire-identity harness: what a refactor of the transaction path must
//! not change. A fixed set of transaction shapes runs under a grid of
//! configurations with a `CrashPlan` armed at every verb index, before,
//! after and in the middle of the verb; each cell prints one line — the
//! result the client saw, `ops_issued`, the fabric's counter deltas and
//! a hash of all remote memory as the crash left it. Verb order, verb
//! payloads and the outcome of every failure path are all in that line.
//!
//! `tools/wire-diff.sh <parent-ref>` runs *this* file against the parent
//! commit's tree and the working tree and diffs the two outputs, so the
//! file sticks to API both trees have. The tests are `#[ignore]`d: they
//! print, they assert only that a grid ran; CI runs one protocol's grid
//! so the harness cannot rot.

use dkvs::{TableDef, TableId};
use pandora::{
    BugFlags, Coordinator, ProtocolKind, SimCluster, SystemConfig, TxnError, TxnRequest,
};
use rdma_sim::{CrashMode, CrashPlan, FaultInjector};

const KV: TableId = TableId(0);
const VALUE_LEN: usize = 16;
const LOADED: u64 = 16;
/// Small on purpose: every cell hashes all of it.
const CAPACITY: u64 = 512 << 10;

fn value(gen: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_LEN];
    v[0..8].copy_from_slice(&gen.to_le_bytes());
    v
}

fn bump(old: &[u8]) -> Vec<u8> {
    value(u64::from_le_bytes(old[0..8].try_into().unwrap()) + 1)
}

fn build(config: SystemConfig) -> SimCluster {
    let cluster = SimCluster::builder(config.protocol)
        .memory_nodes(3)
        .replication(2)
        .capacity_per_node(CAPACITY)
        .table(TableDef::new(0, "kv", VALUE_LEN, 32, 8))
        .max_coord_slots(4)
        .config(config)
        .build()
        .unwrap();
    cluster.bulk_load(KV, (0..LOADED).map(|k| (k, value(0)))).unwrap();
    cluster
}

/// FNV-1a over 64-bit words of every memory node, in node order, with
/// a fold of the high half after each multiply: a lock word is mostly
/// its top bit, which a bare multiply never carries downwards.
fn memory_hash(cluster: &SimCluster) -> u64 {
    let fabric = &cluster.ctx.fabric;
    let endpoint = fabric.register_endpoint();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = vec![0u8; CAPACITY as usize];
    for node in fabric.node_ids() {
        let qp = fabric.qp_admin(endpoint, node, FaultInjector::new()).expect("admin qp");
        qp.read(0, &mut buf).expect("memory read");
        for word in buf.chunks_exact(8) {
            h = (h ^ u64::from_le_bytes(word.try_into().unwrap())).wrapping_mul(0x100_0000_01b3);
            h ^= h >> 32;
        }
    }
    h
}

fn show<T>(r: &Result<T, TxnError>) -> String {
    match r {
        Ok(_) => "Ok".into(),
        Err(TxnError::Aborted(reason)) => format!("Aborted({reason:?})"),
        Err(TxnError::Crashed) => "Crashed".into(),
        Err(TxnError::Rdma(e)) => format!("Rdma({e:?})"),
    }
}

/// A transaction shape: `warm` touches what the shape will touch (run
/// before the plan is armed, when the cell is a warm one), `run` is the
/// transaction under test. `rival` is a second coordinator, connected
/// first, for the shapes that need a conflicting lock or a concurrent
/// commit.
struct Shape {
    name: &'static str,
    warm: fn(&mut Coordinator),
    run: fn(&mut Coordinator, &mut Coordinator) -> String,
}

fn read_all(co: &mut Coordinator) {
    co.run(|txn| {
        for k in 0..LOADED {
            txn.read(KV, k)?;
        }
        txn.read(KV, 100).map(|_| ())
    })
    .expect("warm-up commits");
}

const TXN_SHAPES: &[Shape] = &[
    Shape {
        name: "update2",
        warm: read_all,
        run: |co, _| {
            let mut txn = co.begin();
            show(
                &txn.write(KV, 3, &value(1))
                    .and_then(|()| txn.write(KV, 7, &value(1)))
                    .and_then(|()| txn.commit()),
            )
        },
    },
    Shape {
        name: "read-then-write",
        warm: read_all,
        run: |co, _| {
            let mut txn = co.begin();
            let body = (|| {
                let old = txn.read(KV, 1)?.expect("loaded");
                txn.write(KV, 1, &bump(&old))?;
                txn.read(KV, 2)?;
                txn.read(KV, 1)?;
                txn.write(KV, 1, &value(9))
            })();
            show(&body.and_then(|()| txn.commit()))
        },
    },
    Shape {
        name: "insert-delete-update",
        warm: read_all,
        run: |co, _| {
            let mut txn = co.begin();
            let body = (|| {
                txn.insert(KV, 100, &value(5))?;
                txn.delete(KV, 4)?;
                txn.write(KV, 5, &value(6))?;
                txn.delete(KV, 5)
            })();
            show(&body.and_then(|()| txn.commit()))
        },
    },
    Shape {
        name: "revive",
        // Delete then insert of one key in two transactions: the second
        // insert lands on a tombstone the address cache knows.
        warm: read_all,
        run: |co, _| {
            let first = co.run(|txn| txn.delete(KV, 6)).map(|_| ());
            let mut txn = co.begin();
            let second = txn.insert(KV, 6, &value(8)).and_then(|()| txn.commit());
            format!("{}+{}", show(&first), show(&second))
        },
    },
    Shape {
        name: "read-range",
        warm: read_all,
        run: |co, _| {
            let mut txn = co.begin();
            let body = txn.read_range(KV, 2..9).map(|_| ());
            show(&body.and_then(|()| txn.write(KV, 9, &value(2))).and_then(|()| txn.commit()))
        },
    },
    Shape {
        name: "abort-lock-conflict",
        warm: read_all,
        run: |co, rival| {
            let mut theirs = rival.begin();
            let held = theirs.write(KV, 7, &value(4));
            let mut txn = co.begin();
            let mine = txn
                .write(KV, 3, &value(1))
                .and_then(|()| txn.write(KV, 5, &value(1)))
                .and_then(|()| txn.write(KV, 7, &value(1)))
                .and_then(|()| txn.commit());
            format!("{}/{}/{}", show(&held), show(&mine), show(&theirs.commit()))
        },
    },
    Shape {
        name: "abort-not-found",
        warm: read_all,
        run: |co, _| {
            let mut txn = co.begin();
            show(
                &txn.write(KV, 3, &value(1))
                    .and_then(|()| txn.write(KV, 5, &value(1)))
                    .and_then(|()| txn.write(KV, 200, &value(1)))
                    .and_then(|()| txn.commit()),
            )
        },
    },
    Shape {
        name: "abort-already-exists",
        warm: read_all,
        run: |co, _| {
            let mut txn = co.begin();
            show(
                &txn.write(KV, 3, &value(1))
                    .and_then(|()| txn.delete(KV, 5))
                    .and_then(|()| txn.insert(KV, 8, &value(1)))
                    .and_then(|()| txn.commit()),
            )
        },
    },
    Shape {
        name: "abort-tombstone",
        // A write to a key an earlier transaction deleted: the miss
        // shows only in the under-lock image, with the lock held.
        warm: read_all,
        run: |co, _| {
            let first = co.run(|txn| txn.delete(KV, 6)).map(|_| ());
            let mut txn = co.begin();
            let second = txn
                .write(KV, 3, &value(1))
                .and_then(|()| txn.write(KV, 5, &value(1)))
                .and_then(|()| txn.write(KV, 6, &value(1)))
                .and_then(|()| txn.commit());
            format!("{}+{}", show(&first), show(&second))
        },
    },
    Shape {
        name: "abort-read-continuity",
        // A key read, overwritten by a rival, then written: the version
        // under the lock no longer matches the read-set entry.
        warm: read_all,
        run: |co, rival| {
            let mut txn = co.begin();
            let read = txn.read(KV, 2).map(|_| ()).and_then(|()| txn.write(KV, 3, &value(1)));
            let theirs = rival.run(|t| t.write(KV, 2, &value(7))).map(|_| ());
            let mine = read.and_then(|()| txn.write(KV, 2, &value(1))).and_then(|()| txn.commit());
            format!("{}/{}", show(&theirs), show(&mine))
        },
    },
    Shape {
        name: "abort-validation",
        warm: read_all,
        run: |co, rival| {
            let mut txn = co.begin();
            let body = (|| {
                txn.read(KV, 2)?;
                txn.write(KV, 3, &value(1))?;
                txn.write(KV, 5, &value(1))
            })();
            let theirs = rival.run(|t| t.write(KV, 2, &value(7))).map(|_| ());
            format!("{}/{}", show(&theirs), show(&body.and_then(|()| txn.commit())))
        },
    },
    Shape {
        name: "abort-user",
        warm: read_all,
        run: |co, _| {
            let mut txn = co.begin();
            let body = txn.write(KV, 3, &value(1)).and_then(|()| txn.insert(KV, 101, &value(1)));
            format!("{}/{}", show(&body), show::<()>(&Err(txn.abort())))
        },
    },
];

fn transfer(from: u64, to: u64) -> TxnRequest {
    TxnRequest::new().update(KV, from, bump).update(KV, to, bump)
}

fn show_batch(co: &mut Coordinator, reqs: &[TxnRequest]) -> String {
    co.run_interleaved(reqs).iter().map(show).collect::<Vec<_>>().join(",")
}

/// Request batches (the scheduler's slots, or its one-at-a-time
/// fallback where the configuration does not support interleaving).
const BATCH_SHAPES: &[Shape] = &[
    Shape {
        name: "batch-one",
        warm: read_all,
        run: |co, _| {
            let req = (0..4u64).fold(TxnRequest::new(), |r, k| r.write(KV, k, value(3)));
            show_batch(co, &[req])
        },
    },
    Shape {
        name: "batch-transfers",
        warm: read_all,
        run: |co, _| {
            let mut reqs: Vec<_> = [(0, 8), (1, 9), (2, 10)].map(|(a, b)| transfer(a, b)).into();
            reqs.push(TxnRequest::new().read(KV, 11).write(KV, 12, value(2)).read(KV, 200));
            show_batch(co, &reqs)
        },
    },
    Shape {
        name: "batch-conflict",
        warm: read_all,
        run: |co, _| {
            let reqs =
                [transfer(0, 1), transfer(1, 2), TxnRequest::new().read(KV, 0).update(KV, 3, bump)];
            show_batch(co, &reqs)
        },
    },
    Shape {
        name: "batch-repeat-key",
        warm: read_all,
        run: |co, _| {
            let req = TxnRequest::new()
                .update(KV, 4, bump)
                .read(KV, 4)
                .write(KV, 4, value(7))
                .update(KV, 4, bump);
            show_batch(co, &[req, transfer(5, 6)])
        },
    },
];

/// One cell: a fresh cluster, the plan armed `k` verbs ahead, the shape
/// run once. Returns the printed line and whether the plan fired.
fn cell(
    config: SystemConfig,
    shape: &Shape,
    warm: bool,
    plan: Option<(u64, CrashMode)>,
) -> (String, bool) {
    let cluster = build(config);
    let (mut rival, _rival_lease) = cluster.coordinator().unwrap();
    let (mut co, _lease) = cluster.coordinator().unwrap();
    if warm {
        (shape.warm)(&mut co);
        (shape.warm)(&mut rival);
    }
    let injector = co.injector();
    let ops0 = injector.ops_issued();
    if let Some((k, mode)) = plan {
        injector.arm(CrashPlan { at_op: ops0 + k, mode });
    }
    let before = cluster.ctx.fabric.total_counters();
    let result = (shape.run)(&mut co, &mut rival);
    let after = cluster.ctx.fabric.total_counters();
    let fired = injector.is_crashed();
    let line = format!(
        "{result} ops={} r={} w={} c={} f={} br={} bw={} mem={:016x}",
        injector.ops_issued() - ops0,
        after.reads - before.reads,
        after.writes - before.writes,
        after.cas - before.cas,
        after.flushes - before.flushes,
        after.bytes_read - before.bytes_read,
        after.bytes_written - before.bytes_written,
        memory_hash(&cluster),
    );
    (line, fired)
}

/// Every crash cell of one (configuration, shape, warmth), then the
/// clean run. Returns the number of cells whose plan fired.
fn sweep(out: &mut String, tag: &str, config: SystemConfig, shape: &Shape, warm: bool) -> u64 {
    let head = format!("{tag} {} {}", shape.name, if warm { "warm" } else { "cold" });
    let mut fired_cells = 0;
    for k in 1.. {
        let mut any = false;
        for mode in [CrashMode::BeforeOp, CrashMode::AfterOp, CrashMode::MidWrite] {
            let (line, fired) = cell(config, shape, warm, Some((k, mode)));
            out.push_str(&format!("{head} {mode:?}@{k}: {line}\n"));
            any |= fired;
            fired_cells += fired as u64;
        }
        if !any {
            break;
        }
        assert!(k < 400, "{head}: the transaction never ends");
    }
    let (line, _) = cell(config, shape, warm, None);
    out.push_str(&format!("{head} clean: {line}\n"));
    fired_cells
}

fn one_bug(i: usize) -> (&'static str, BugFlags) {
    let none = BugFlags::none();
    [
        ("bug-complicit-abort", BugFlags { complicit_abort: true, ..none }),
        ("bug-missing-insert-log", BugFlags { missing_insert_log: true, ..none }),
        ("bug-covert-locks", BugFlags { covert_locks: true, ..none }),
        ("bug-relaxed-locks", BugFlags { relaxed_locks: true, ..none }),
        ("bug-lost-decision", BugFlags { lost_decision: true, ..none }),
        ("bug-logging-without-locking", BugFlags { logging_without_locking: true, ..none }),
    ][i]
}

/// The configuration grid of one protocol.
fn variants(protocol: ProtocolKind) -> Vec<(String, SystemConfig)> {
    let base = SystemConfig::new(protocol);
    let mut v = vec![
        ("default".to_string(), base),
        ("no-pipeline".to_string(), base.with_pipeline_depth(1)),
        ("nvm".to_string(), base.with_persistence(pandora::config::PersistenceMode::NvmFlush)),
        ("stripes4".to_string(), base.with_qp_stripes(4)),
        ("depth2".to_string(), base.with_pipeline_depth(2)),
        ("depth4-stripes2".to_string(), base.with_pipeline_depth(4).with_qp_stripes(2)),
    ];
    if protocol == ProtocolKind::Pandora {
        v.push(("no-pill".to_string(), base.without_pill()));
    }
    if protocol != ProtocolKind::Traditional {
        for i in 0..6 {
            let (name, bugs) = one_bug(i);
            v.push((name.to_string(), base.with_bugs(bugs)));
        }
    }
    v
}

fn grid(protocol: ProtocolKind) {
    let mut out = String::new();
    let mut fired = 0;
    for (name, config) in variants(protocol) {
        let tag = format!("{protocol:?} {name}");
        for shape in TXN_SHAPES {
            for warm in [false, true] {
                fired += sweep(&mut out, &tag, config, shape, warm);
            }
        }
        // With one transaction in flight the request path runs each
        // request as a `Txn`.
        fired += sweep(&mut out, &tag, config, &BATCH_SHAPES[1], true);
    }
    if protocol == ProtocolKind::Pandora {
        let base = SystemConfig::new(protocol);
        let slots = [
            ("il2", base.with_inflight_txns(2)),
            ("il8-stripes4", base.with_inflight_txns(8).with_qp_stripes(4)),
            ("il4-depth2", base.with_inflight_txns(4).with_pipeline_depth(2)),
        ];
        for (name, config) in slots {
            let tag = format!("{protocol:?} {name}");
            for shape in BATCH_SHAPES {
                for warm in [false, true] {
                    fired += sweep(&mut out, &tag, config, shape, warm);
                }
            }
        }
    }
    print!("{out}");
    assert!(fired > 100, "{protocol:?}: only {fired} cells crashed — op indexes wrong?");
}

#[test]
#[ignore = "prints the wire grid; run through tools/wire-diff.sh"]
fn wire_hash_pandora() {
    grid(ProtocolKind::Pandora);
}

#[test]
#[ignore = "prints the wire grid; run through tools/wire-diff.sh"]
fn wire_hash_ford() {
    grid(ProtocolKind::Ford);
}

#[test]
#[ignore = "prints the wire grid; run through tools/wire-diff.sh"]
fn wire_hash_traditional() {
    grid(ProtocolKind::Traditional);
}
