//! The litmus execution harness: concurrent interleaving exploration
//! with random crash injection and end-to-end recovery.

use std::sync::Arc;
use std::time::Duration;

use dkvs::{TableDef, TableId};
use pandora::{BugFlags, Coordinator, ProtocolKind, SimCluster, SystemConfig, TxnError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::model::{LitmusTest, Op, State, TxnProgram, Var};

/// The litmus table: 8-byte values holding a little-endian u64.
pub const LITMUS_TABLE: TableId = TableId(0);
const VALUE_LEN: usize = 8;

/// How one litmus transaction ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Commit-ack delivered.
    Committed,
    /// Abort-ack delivered and retries exhausted.
    GaveUp,
    /// The coordinator crashed mid-transaction (injected).
    Crashed,
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct LitmusConfig {
    pub protocol: ProtocolKind,
    pub bugs: BugFlags,
    /// Iterations (each is a fresh cluster + random schedule).
    pub iterations: u32,
    /// Inject a crash into one transaction per iteration.
    pub inject_crashes: bool,
    pub seed: u64,
    /// Per-transaction abort retries before giving up.
    pub max_retries: u32,
    /// Per-verb latency injected into the cluster. Sleep-scale values
    /// (hundreds of microseconds) force rich thread interleavings on
    /// small hosts, widening the schedule space the harness explores.
    pub latency: rdma_sim::LatencyModel,
    /// Records retained per coordinator by the flight recorder each
    /// iteration attaches (the "rich trace" dumped on a violation). Deep
    /// schedules with many retries may need more than the default 4096.
    pub trace_capacity: usize,
}

impl LitmusConfig {
    pub fn new(protocol: ProtocolKind) -> LitmusConfig {
        LitmusConfig {
            protocol,
            bugs: BugFlags::none(),
            iterations: 50,
            inject_crashes: true,
            seed: 0xA11CE,
            max_retries: 20,
            latency: rdma_sim::LatencyModel::zero(),
            trace_capacity: 4096,
        }
    }
}

/// Aggregate result of a litmus run.
#[derive(Debug, Clone, Default)]
pub struct LitmusOutcome {
    pub iterations: u32,
    pub crashes_injected: u32,
    pub recoveries_run: u32,
    pub committed: u64,
    pub gave_up: u64,
    /// Assertion violations with their descriptions.
    pub violations: Vec<String>,
}

impl LitmusOutcome {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Build a minimal cluster for a litmus test.
pub fn litmus_cluster(protocol: ProtocolKind, bugs: BugFlags) -> SimCluster {
    litmus_cluster_with_latency(protocol, bugs, rdma_sim::LatencyModel::zero())
}

/// Litmus cluster with an injected per-verb latency. Sleep-scale
/// latencies force the OS to interleave coordinator threads mid-phase —
/// essential on small machines for races that need two commits to
/// overlap (e.g. the covert-locks interleaving).
pub fn litmus_cluster_with_latency(
    protocol: ProtocolKind,
    bugs: BugFlags,
    latency: rdma_sim::LatencyModel,
) -> SimCluster {
    SimCluster::builder(protocol)
        .memory_nodes(2)
        .replication(2)
        .capacity_per_node(4 << 20)
        .table(TableDef::new(0, "litmus", VALUE_LEN, 16, 8))
        .max_coord_slots(32)
        .config(SystemConfig::new(protocol).with_bugs(bugs))
        .latency(latency)
        .build()
        .expect("build litmus cluster")
}

/// Load a test's initial variable values.
pub fn load_initial(cluster: &SimCluster, init: &[(Var, u64)]) {
    cluster
        .bulk_load(LITMUS_TABLE, init.iter().map(|&(v, x)| (v.0, x.to_le_bytes().to_vec())))
        .expect("load litmus init");
}

/// Interpret one litmus transaction body inside `txn`.
fn run_ops(
    txn: &mut pandora::Txn<'_>,
    ops: &[Op],
    jitter: &mut Option<&mut StdRng>,
) -> Result<(), TxnError> {
    let mut regs: Vec<Option<u64>> = vec![None; 8];
    for op in ops {
        if let Some(rng) = jitter.as_deref_mut() {
            // Randomized think time between ops widens the explored
            // interleaving space.
            let delay = rng.random_range(0..40u64);
            if delay > 0 {
                std::thread::sleep(Duration::from_micros(delay));
            }
        }
        match *op {
            Op::Read { var, reg } => {
                let v = txn.read(LITMUS_TABLE, var.0)?;
                regs[reg] = v.map(decode);
            }
            Op::Write { var, expr } => {
                let value = expr.eval(&regs).expect("expr over unset register");
                txn.write(LITMUS_TABLE, var.0, &value.to_le_bytes())?;
            }
            Op::Insert { var, expr } => {
                let value = expr.eval(&regs).expect("expr over unset register");
                txn.insert(LITMUS_TABLE, var.0, &value.to_le_bytes())?;
            }
            Op::Delete { var } => {
                txn.delete(LITMUS_TABLE, var.0)?;
            }
        }
    }
    Ok(())
}

fn decode(bytes: Vec<u8>) -> u64 {
    u64::from_le_bytes(bytes[0..8].try_into().expect("8B"))
}

/// Run a program to completion on `co` with bounded abort retries.
pub fn run_program(
    co: &mut Coordinator,
    program: &TxnProgram,
    max_retries: u32,
    mut jitter: Option<&mut StdRng>,
) -> TxnOutcome {
    for _ in 0..=max_retries {
        let mut txn = co.begin();
        let body = run_ops(&mut txn, &program.ops, &mut jitter);
        match body.and_then(|()| txn.commit()) {
            Ok(()) => return TxnOutcome::Committed,
            Err(TxnError::Aborted(_)) => continue,
            Err(_) => return TxnOutcome::Crashed,
        }
    }
    TxnOutcome::GaveUp
}

/// Read the observable final state (retrying read-only txn).
pub fn observe(cluster: &SimCluster, observed: &[Var]) -> State {
    let (mut co, _lease) = cluster.coordinator().expect("observer coordinator");
    let vars = observed.to_vec();
    let (state, _) = co
        .run(move |txn| {
            let mut s = State::default();
            for &v in &vars {
                s.set(v, txn.read(LITMUS_TABLE, v.0)?.map(decode));
            }
            Ok(s)
        })
        .expect("observer txn");
    state
}

/// Run a litmus test under random schedules and crash injection.
///
/// Each iteration: fresh cluster, initial data, one coordinator thread
/// per transaction with randomized think times; optionally one
/// transaction is crash-armed at a sweeping op index; crashed
/// coordinators are recovered through the failure detector; finally the
/// assertion runs over the observable state.
pub fn run_random(test: &LitmusTest, config: &LitmusConfig) -> LitmusOutcome {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = LitmusOutcome { iterations: config.iterations, ..Default::default() };

    for iter in 0..config.iterations {
        let cluster =
            Arc::new(litmus_cluster_with_latency(config.protocol, config.bugs, config.latency));
        load_initial(&cluster, &test.init);

        // Pick the crash site for this iteration: transaction index and
        // op index sweep so every protocol step gets hit eventually.
        let crash_txn = if config.inject_crashes && !test.txns.is_empty() {
            Some(iter as usize % test.txns.len())
        } else {
            None
        };
        let crash_at_op = 1 + (iter as u64 / test.txns.len().max(1) as u64) % 24;
        let crash_mode = if iter % 2 == 0 {
            rdma_sim::CrashMode::AfterOp
        } else {
            rdma_sim::CrashMode::BeforeOp
        };

        // One standalone flight recorder shared by the participants: on
        // a violation we dump their interleaved protocol events and phase
        // spans. Standalone, so the fabric taps no verb for it.
        let recorder =
            pandora::FlightRecorder::new(cluster.ctx.fabric.clock(), 0, config.trace_capacity);
        let mut handles = Vec::new();
        let mut crashed_coords = Vec::new();
        for (i, program) in test.txns.iter().enumerate() {
            let cluster2 = Arc::clone(&cluster);
            let program = program.clone();
            let seed = rng.random::<u64>();
            let max_retries = config.max_retries;
            let crash_here = crash_txn == Some(i);
            let (co, lease) = cluster.coordinator().expect("litmus coordinator");
            let mut co = co.with_flight(&recorder);
            if crash_here {
                co.injector().arm(rdma_sim::CrashPlan { at_op: crash_at_op, mode: crash_mode });
                crashed_coords.push(lease.coord_id);
            }
            handles.push(std::thread::spawn(move || {
                let _cluster = cluster2; // keep alive
                let mut jrng = StdRng::seed_from_u64(seed);
                run_program(&mut co, &program, max_retries, Some(&mut jrng))
            }));
        }
        let mut any_crashed = false;
        for h in handles {
            match h.join().expect("litmus thread") {
                TxnOutcome::Committed => out.committed += 1,
                TxnOutcome::GaveUp => out.gave_up += 1,
                TxnOutcome::Crashed => any_crashed = true,
            }
        }
        if crash_txn.is_some() {
            out.crashes_injected += 1;
        }
        // End-to-end recovery for the crashed coordinator (the armed
        // plan may not have fired if the txn finished in fewer ops —
        // declare_failed is still safe and exercises idempotency).
        for coord in crashed_coords {
            if cluster.fd.declare_failed(coord).is_some() {
                out.recoveries_run += 1;
            }
        }
        let _ = any_crashed;

        let state = observe(&cluster, &test.observed);
        if let Err(v) = (test.check)(&state) {
            out.violations.push(format!(
                "{}: iteration {iter} (crash txn {crash_txn:?} at op {crash_at_op} {crash_mode:?}): {v}\n--- protocol trace ---\n{}",
                test.name,
                recorder.dump_text()
            ));
        }
    }
    out
}
