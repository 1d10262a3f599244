//! Seeded chaos soak: transfer workers under randomized transient-fault
//! schedules (verb timeouts, link flaps, partitions, delay spikes) plus
//! a fault storm of power-cuts and false suspicions. After quiescing,
//! the audit asserts the three survivable-chaos invariants: money
//! conserved, every recovery completed, zero residual locks. Every
//! assertion message carries the seed; to replay a failure, call
//! `soak(<seed>)` from a scratch test — the chaos schedule and the
//! fault storm both derive deterministically from it.

use std::sync::Arc;
use std::time::Duration;

use dkvs::{TableDef, TableId};
use pandora::{Coordinator, ProtocolKind, SimCluster, TxnError};
use pandora_workloads::{RunnerConfig, Workload, WorkloadRunner};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rdma_sim::ChaosConfig;

const ACCOUNTS: TableId = TableId(0);
const N_ACCOUNTS: u64 = 64;
const INITIAL: i64 = 1_000;

fn value(b: i64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[0..8].copy_from_slice(&b.to_le_bytes());
    v
}

fn balance(v: &[u8]) -> i64 {
    i64::from_le_bytes(v[0..8].try_into().unwrap())
}

/// Transfer-only bank: unlike SmallBank (whose deposits mint money) the
/// account total is invariant, so conservation is the correctness
/// oracle — any lost update, partial commit, replayed roll-back, or
/// double-applied retry shows up as a minted or burned coin.
struct TransferBank;

impl Workload for TransferBank {
    fn name(&self) -> &'static str {
        "transfer-bank"
    }

    fn tables(&self) -> Vec<TableDef> {
        vec![TableDef::sized_for(0, "checking", 16, N_ACCOUNTS)]
    }

    fn load(&self, cluster: &SimCluster) {
        cluster
            .bulk_load(ACCOUNTS, (0..N_ACCOUNTS).map(|k| (k, value(INITIAL))))
            .unwrap();
    }

    fn execute(&self, co: &mut Coordinator, rng: &mut StdRng) -> Result<(), TxnError> {
        let from = rng.random_range(0..N_ACCOUNTS);
        let to = (from + 1 + rng.random_range(0..N_ACCOUNTS - 1)) % N_ACCOUNTS;
        let mut txn = co.begin();
        let a = balance(&txn.read(ACCOUNTS, from)?.expect("from account loaded"));
        let b = balance(&txn.read(ACCOUNTS, to)?.expect("to account loaded"));
        let amount = 7.min(a).max(0);
        txn.write(ACCOUNTS, from, &value(a - amount))?;
        txn.write(ACCOUNTS, to, &value(b + amount))?;
        txn.commit()
    }
}

fn soak_cluster(chaos: Option<ChaosConfig>, flight: bool) -> Arc<SimCluster> {
    let mut b = SimCluster::builder(ProtocolKind::Pandora)
        .memory_nodes(3)
        .replication(2)
        // Generous id space: every false-suspicion survival registers a
        // fresh incarnation, and the storm produces many. Capacity must
        // cover the 512 × 32 KiB log slabs on top of the table.
        .capacity_per_node(64 << 20)
        .table(TableDef::sized_for(0, "checking", 16, N_ACCOUNTS))
        .max_coord_slots(512);
    if let Some(cfg) = chaos {
        b = b.chaos(cfg);
    }
    if flight {
        b = b.flight(8192);
    }
    let cluster = Arc::new(b.build().unwrap());
    TransferBank.load(&cluster);
    cluster
}

/// One soak run: load, enable chaos, run a fault storm over a worker
/// fleet, quiesce, audit. An assertion failure dumps the flight
/// recorder and re-panics with the dump path appended, so the report
/// names both the seed to replay and the span-level post-mortem file.
fn soak(seed: u64) {
    let cluster = soak_cluster(Some(ChaosConfig::heavy(seed)), true);
    let flight = cluster.flight.clone().expect("flight recorder installed");
    flight.set_chaos_seed(seed);
    pandora::dump_on_panic(
        Some(&flight),
        "chaos-soak",
        std::panic::AssertUnwindSafe(|| storm_and_audit(&cluster, seed)),
    );
}

fn storm_and_audit(cluster: &Arc<SimCluster>, seed: u64) {
    let chaos = cluster.chaos.clone().expect("chaos installed");
    chaos.set_enabled(true);

    // The monitor declares self-fenced and power-cut workers (their
    // heartbeats stop) and inevitably some retry-stalled live ones — the
    // latter are the organic false suspicions this layer must survive.
    let monitor = cluster.fd.start_monitor();
    let mut runner = WorkloadRunner::spawn(
        Arc::clone(cluster),
        Arc::new(TransferBank),
        RunnerConfig { coordinators: 4, seed, phase_metrics: false },
    );

    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    for _round in 0..6 {
        std::thread::sleep(Duration::from_millis(15));
        match rng.random_range(0..3u32) {
            0 => {
                // Power-cut a worker; the monitor declares and recovers
                // it once its heartbeat goes stale.
                let idx = rng.random_range(0..runner.len());
                runner.crash_worker(idx);
                std::thread::sleep(Duration::from_millis(2));
                runner.respawn_crashed();
            }
            1 => {
                // Deliberate false suspicion: declare a live worker
                // failed. It observes AccessRevoked, waits out its own
                // recovery, and re-registers under a fresh id.
                let ids = runner.coord_ids();
                let victim = ids[rng.random_range(0..ids.len())];
                cluster.fd.declare_failed(victim);
            }
            _ => {
                // Partition a random link for a bounded verb count.
                chaos.partition(
                    rng.random_range(0..12u32),
                    rng.random_range(0..3u32) as u16,
                    rng.random_range(5..40u64),
                );
            }
        }
    }

    // Quiesce: stop injecting, give in-flight retries and reincarnations
    // time to settle, then stop the fleet. The monitor then declares the
    // (no longer beating) stopped workers and runs their — now
    // fault-free — recoveries, releasing any locks a worker left behind
    // when it fenced itself at the instant the storm ended.
    chaos.set_enabled(false);
    std::thread::sleep(Duration::from_millis(40));
    runner.respawn_crashed();
    std::thread::sleep(Duration::from_millis(20));
    runner.stop_and_join();
    std::thread::sleep(cluster.ctx.config.fd_timeout + Duration::from_millis(20));
    monitor.stop();
    // The monitor's last sweep recovered whoever was stale when it began,
    // and a recovery takes long enough (each one dumps the recorder) for
    // the stop to land before the next sweep. Nobody beats any more:
    // sweep until every registered coordinator has been declared — one
    // left out may be a worker that fenced itself mid-apply.
    let drained = std::time::Instant::now() + Duration::from_secs(30);
    while cluster.fd.alive_count() > 0 {
        assert!(std::time::Instant::now() < drained, "seed {seed}: the fleet never drained");
        cluster.fd.sweep(cluster.ctx.config.fd_timeout);
        std::thread::sleep(Duration::from_millis(1));
    }

    // Every recovery that ran — storm-driven or cleanup — completed.
    for report in cluster.fd.reports() {
        assert!(report.completed, "seed {seed}: recovery of coord {} incomplete", report.coord);
    }

    // Failed-id recycling converges now that the fabric is calm.
    cluster.fd.recovery().recycle_failed_ids();
    assert_eq!(cluster.ctx.failed.population(), 0, "seed {seed}: failed ids not recycled");

    // Conservation: no coin minted or burned by any retry/recovery path.
    let total: i64 = (0..N_ACCOUNTS)
        .map(|k| {
            balance(
                &cluster
                    .peek(ACCOUNTS, k)
                    .unwrap_or_else(|| panic!("seed {seed}: account {k} unreadable")),
            )
        })
        .sum();
    assert_eq!(total, N_ACCOUNTS as i64 * INITIAL, "seed {seed}: money not conserved");

    // Zero residual locks on any replica of any account.
    for k in 0..N_ACCOUNTS {
        for node in cluster.replica_nodes(ACCOUNTS, k) {
            let (lock, _, _) = cluster
                .raw_slot(ACCOUNTS, k, node)
                .unwrap_or_else(|| panic!("seed {seed}: account {k} missing on {node:?}"));
            assert!(
                !lock.is_locked(),
                "seed {seed}: residual lock on account {k} node {node:?} (owner {})",
                lock.owner()
            );
        }
    }

    // The storm actually exercised the machinery under test.
    let injected = chaos.stats();
    assert!(
        injected.timeouts_ambiguous + injected.timeouts_not_applied > 0,
        "seed {seed}: chaos injected no verb timeouts"
    );
    let resilience = cluster.ctx.resilience.snapshot();
    assert!(resilience.retries > 0, "seed {seed}: retry machinery never engaged");
}

/// The three CI-pinned seeds (kept in sync with
/// `.github/workflows/ci.yml`'s chaos-soak job).
#[test]
fn chaos_soak_seed_1() {
    soak(0xD15EA5E01);
}

#[test]
fn chaos_soak_seed_2() {
    soak(0xD15EA5E02);
}

#[test]
fn chaos_soak_seed_3() {
    soak(0xD15EA5E03);
}

/// Broader local sweep (ISSUE acceptance: ≥10 seeds). Ignored in the
/// default run to keep `cargo test` fast; CI runs it in the dedicated
/// chaos-soak job.
#[test]
#[ignore = "long soak; run explicitly or via the CI chaos-soak job"]
fn chaos_soak_ten_seeds() {
    for seed in 100..110u64 {
        soak(seed);
    }
}

/// Zero-cost-off: a cluster with a chaos model installed but never
/// enabled is byte-identical to one with no chaos at all — same verb
/// counts on the wire, same final state.
#[test]
fn disabled_chaos_is_invisible() {
    let run = |cluster: Arc<SimCluster>| {
        let (mut co, lease) = cluster.coordinator().unwrap();
        for i in 0..200u64 {
            let from = (i * 7) % N_ACCOUNTS;
            let to = (from + 1 + (i * 13) % (N_ACCOUNTS - 1)) % N_ACCOUNTS;
            co.run(|txn| {
                let a = balance(&txn.read(ACCOUNTS, from)?.expect("from"));
                let b = balance(&txn.read(ACCOUNTS, to)?.expect("to"));
                let amount = 5.min(a).max(0);
                txn.write(ACCOUNTS, from, &value(a - amount))?;
                txn.write(ACCOUNTS, to, &value(b + amount))
            })
            .unwrap();
        }
        cluster.fd.deregister(lease.coord_id);
        co.gate().mark_dead();
        let finals: Vec<i64> =
            (0..N_ACCOUNTS).map(|k| balance(&cluster.peek(ACCOUNTS, k).unwrap())).collect();
        (cluster.ctx.fabric.total_counters(), finals)
    };

    let plain = run(soak_cluster(None, false));
    let armed = run(soak_cluster(Some(ChaosConfig::heavy(7)), false));
    assert_eq!(plain.0, armed.0, "verb counts diverge with chaos installed but disabled");
    assert_eq!(plain.1, armed.1, "final state diverges with chaos installed but disabled");
}
