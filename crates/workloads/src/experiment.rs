//! The client layer above the engine: what every consumer of a workload
//! — the CLI, the bench targets — needs and none of them re-implements.
//!
//! * [`build_cluster`]: the evaluation's cluster for a workload, loaded.
//! * [`run_failover`]: the one experiment behind every fail-over figure
//!   of the paper's §6.3–6.4 — run the mix, inject a compute or memory
//!   fault at *t*, sample committed tps — and [`inject_fault`], its
//!   fault step alone, for runs that fail more than once (the MTTF
//!   sweep).
//! * [`freeze`] + [`recover`]: Table 2's procedure — crash *N*
//!   coordinators mid-transaction, time their recovery.
//!
//! Callers parse their inputs into a [`FailoverSpec`] and print the
//! [`FailoverRun`]; the cluster shape, the fault sequence and where the
//! reports and the timeline join the metrics live here only.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pandora::{
    CoordStats, MemFailReport, MemoryFailureHandler, MetricsSnapshot, ProtocolKind,
    RecoveryCrashPlan, RecoveryReport, SimCluster, SystemConfig,
};
use rand::rngs::StdRng;
use rand::RngExt;
use rdma_sim::{ChaosConfig, CrashMode, CrashPlan, EndpointId, LatencyModel, NodeId};

use crate::{with_tables, RunnerConfig, Workload, WorkloadRunner};

/// Memory nodes of the evaluation's cluster; f + 1 = 2 replicas of each.
pub const MEMORY_NODES: u16 = 3;

/// Build and load the evaluation's cluster for `workload`: three memory
/// nodes, replication 2, room for 2048 coordinator ids, and per node the
/// tables' segments (hosted on every node) plus log slabs and headroom.
/// `chaos` installs the transient-fault model (disabled until the caller
/// enables it, so the load runs clean); `flight` the flight recorder with
/// that many spans per track.
pub fn build_cluster(
    workload: &dyn Workload,
    config: SystemConfig,
    latency: LatencyModel,
    chaos: Option<ChaosConfig>,
    flight: Option<usize>,
) -> Arc<SimCluster> {
    let segments: u64 = workload.tables().iter().map(|t| t.segment_bytes()).sum();
    let mut builder = with_tables(
        SimCluster::builder(config.protocol)
            .memory_nodes(MEMORY_NODES)
            .replication(2)
            .capacity_per_node((segments + (96 << 20)).next_power_of_two())
            .max_coord_slots(2048)
            .config(config)
            .latency(latency),
        workload,
    );
    if let Some(cfg) = chaos {
        builder = builder.chaos(cfg);
    }
    if let Some(capacity) = flight {
        builder = builder.flight(capacity);
    }
    let cluster = builder.build().expect("build cluster");
    workload.load(&cluster);
    Arc::new(cluster)
}

/// The fault injected mid-run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// No fault (steady-state line).
    None,
    /// Crash this fraction of the coordinators (compute failure).
    ComputeCrash { fraction: f64 },
    /// Crash-stop one memory server (memory failure).
    MemoryKill { node: u16 },
}

/// Fail-over experiment specification.
#[derive(Debug, Clone)]
pub struct FailoverSpec {
    pub coordinators: usize,
    /// Total run length.
    pub duration: Duration,
    /// When the fault fires.
    pub fault_at: Duration,
    pub fault: FaultKind,
    /// Respawn crashed coordinators after recovery completes (the
    /// resource-reuse line of fig. 8).
    pub respawn: bool,
    /// Detection takes `max(recovery_delay, fd_timeout)`: zero is the
    /// FD's own timeout, more models a slow/naive recovery (the
    /// fig. 13/14 sensitivity study).
    pub recovery_delay: Duration,
    pub sample_interval: Duration,
    pub seed: u64,
    /// Per-phase commit-path timers on every worker (see
    /// [`RunnerConfig::phase_metrics`]).
    pub phase_metrics: bool,
    /// Compute faults only: kill the recovering FD replica at this
    /// point of recovery; a surviving replica re-runs it from scratch.
    pub recovery_crash: Option<RecoveryCrashPlan>,
    /// With `recovery_crash`: a memory node that dies inside the
    /// takeover window (compound failure).
    pub nested_mem_fail: Option<NodeId>,
}

impl Default for FailoverSpec {
    fn default() -> Self {
        FailoverSpec {
            coordinators: 8,
            duration: Duration::from_secs(8),
            fault_at: Duration::from_secs(3),
            fault: FaultKind::None,
            respawn: false,
            recovery_delay: Duration::ZERO,
            sample_interval: Duration::from_millis(100),
            seed: 7,
            phase_metrics: true,
            recovery_crash: None,
            nested_mem_fail: None,
        }
    }
}

/// What one [`inject_fault`] did.
#[derive(Debug, Clone, Default)]
pub struct FaultRecord {
    /// Coordinator-ids crashed (compute faults).
    pub crashed: Vec<u16>,
    /// Crashed coordinators replaced after recovery.
    pub respawned: usize,
    /// The reconfiguration a memory fault caused.
    pub reconfiguration: Option<MemFailReport>,
}

/// Inject `spec.fault` into a running fleet, now: crash or kill, wait
/// out detection, recover (compute: FD declaration per victim, its
/// report left in `cluster.fd.reports()`; memory: the stop-the-world
/// reconfiguration), then respawn if asked.
pub fn inject_fault<W: Workload + ?Sized>(
    runner: &mut WorkloadRunner<W>,
    spec: &FailoverSpec,
) -> FaultRecord {
    let cluster = Arc::clone(runner.cluster());
    let detection = spec.recovery_delay.max(cluster.ctx.config.fd_timeout);
    let mut record = FaultRecord::default();
    match spec.fault {
        FaultKind::None => {}
        FaultKind::ComputeCrash { fraction } => {
            let n = (runner.len() as f64 * fraction).round() as usize;
            record.crashed = runner.crash_first(n);
            if let Some(plan) = spec.recovery_crash {
                cluster.fd.arm_recovery_crash(plan);
            }
            if let Some(node) = spec.nested_mem_fail {
                cluster.fd.arm_nested_mem_fail(node);
            }
            std::thread::sleep(detection);
            for &coord in &record.crashed {
                cluster.fd.declare_failed(coord);
            }
            if spec.respawn {
                // Paper §6.4: "the failed coordinators are brought back
                // in less than 10ms after the fault".
                record.respawned = runner.respawn_crashed();
            }
        }
        FaultKind::MemoryKill { node } => {
            let node = NodeId(node);
            cluster.ctx.fabric.kill_node(node).expect("kill node");
            std::thread::sleep(detection);
            let handler =
                MemoryFailureHandler::new(Arc::clone(&cluster.ctx)).expect("memfail handler");
            record.reconfiguration = Some(handler.handle_failure(node));
        }
    }
    record
}

/// What one [`run_failover`] observed.
#[derive(Debug, Clone)]
pub struct FailoverRun {
    /// Everything the run's sources report at its end; `timeline` and
    /// `recoveries` hold the sampled tps curve and the recovery reports,
    /// so `to_json()` carries both.
    pub metrics: MetricsSnapshot,
    /// When the fault fired, from the start of the run.
    pub fault_fired: Duration,
    pub fault: FaultRecord,
    /// Per-worker totals of the fleet as it stood at the end.
    pub stats: Vec<CoordStats>,
}

/// Run `workload` on `cluster` for `spec.duration`, injecting
/// `spec.fault` at `spec.fault_at` (never, when that is not before the
/// end), sampling throughput every `spec.sample_interval`.
pub fn run_failover<W: Workload + ?Sized>(
    cluster: Arc<SimCluster>,
    workload: Arc<W>,
    spec: &FailoverSpec,
) -> FailoverRun {
    let mut runner = WorkloadRunner::spawn(
        Arc::clone(&cluster),
        workload,
        RunnerConfig {
            coordinators: spec.coordinators,
            seed: spec.seed,
            phase_metrics: spec.phase_metrics,
        },
    );
    let sampler = runner.timeline_sampler(spec.sample_interval);
    let t0 = Instant::now();
    std::thread::sleep(spec.fault_at.min(spec.duration));
    let fault_fired = t0.elapsed();
    let fault = if spec.fault_at < spec.duration {
        inject_fault(&mut runner, spec)
    } else {
        FaultRecord::default()
    };
    std::thread::sleep(spec.duration.saturating_sub(t0.elapsed()));
    let timeline = sampler.finish();
    let registry = runner.metrics();
    let stats = runner.stop_and_join();
    registry.add_reports(&cluster.fd.reports());
    registry.add_timeline(&timeline);
    FailoverRun { metrics: registry.snapshot(), fault_fired, fault, stats }
}

/// Create `n` coordinators and crash each mid-transaction, leaving locks
/// and logs wherever the crash caught them ("frozen coordinators" — the
/// outstanding transactions of a failed compute node).
pub fn freeze(
    cluster: &SimCluster,
    workload: &dyn Workload,
    n: usize,
    rng: &mut StdRng,
) -> Vec<(u16, EndpointId)> {
    let mut frozen = Vec::with_capacity(n);
    for _ in 0..n {
        let (mut co, lease) = cluster.coordinator().expect("coordinator");
        let injector = co.injector();
        for _attempt in 0..4 {
            let at_op = injector.ops_issued() + rng.random_range(1..=25u64);
            let mode = if rng.random_bool(0.5) { CrashMode::AfterOp } else { CrashMode::BeforeOp };
            injector.arm(CrashPlan { at_op, mode });
            let _ = workload.execute(&mut co, rng);
            if injector.is_crashed() {
                break;
            }
        }
        if !injector.is_crashed() {
            injector.crash_now();
            co.gate().mark_dead();
        }
        frozen.push((lease.coord_id, lease.endpoint));
    }
    frozen
}

/// Recover `frozen` the cluster's protocol's way — Pandora one
/// coordinator at a time, FORD and Traditional all at once under a
/// world pause — and time it.
pub fn recover(
    cluster: &SimCluster,
    frozen: &[(u16, EndpointId)],
) -> (Vec<RecoveryReport>, Duration) {
    let rc = cluster.fd.recovery();
    let t0 = Instant::now();
    let reports = match cluster.ctx.config.protocol {
        ProtocolKind::Pandora => frozen
            .iter()
            .map(|&(coord, endpoint)| rc.recover_pandora(coord, endpoint))
            .collect(),
        ProtocolKind::Ford => vec![rc.recover_baseline(frozen)],
        ProtocolKind::Traditional => vec![rc.recover_traditional(frozen)],
    };
    (reports, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MicroBench;
    use pandora::obs::json;

    #[test]
    fn a_compute_fault_with_respawn_reports_each_victim_and_keeps_its_timeline() {
        let bench = Arc::new(MicroBench::new(512, 0.5));
        let config = SystemConfig::new(ProtocolKind::Pandora);
        let cluster = build_cluster(bench.as_ref(), config, LatencyModel::zero(), None, None);
        let spec = FailoverSpec {
            coordinators: 4,
            duration: Duration::from_millis(400),
            fault_at: Duration::from_millis(150),
            fault: FaultKind::ComputeCrash { fraction: 0.5 },
            respawn: true,
            sample_interval: Duration::from_millis(20),
            ..Default::default()
        };
        let run = run_failover(cluster, bench, &spec);

        assert_eq!(run.fault.crashed.len(), 2);
        assert_eq!(run.fault.respawned, 2);
        assert!(run.fault_fired >= spec.fault_at);
        let mut recovered: Vec<u16> = run.metrics.recoveries.iter().map(|r| r.coord).collect();
        recovered.sort_unstable();
        let mut crashed = run.fault.crashed.clone();
        crashed.sort_unstable();
        assert_eq!(recovered, crashed, "one report per victim");
        assert_eq!(run.stats.len(), 4, "the respawned fleet is whole");
        assert!(run.metrics.committed > 0 && !run.metrics.timeline.is_empty());

        // What `--metrics-json` and `PANDORA_METRICS_JSON` write.
        let doc = json::parse(&run.metrics.to_json()).expect("metrics JSON parses");
        let len = |key: &str| doc.get(key).and_then(|v| v.as_array()).expect("array").len();
        assert_eq!(len("recoveries"), 2);
        assert_eq!(len("timeline"), run.metrics.timeline.len());
    }

    #[test]
    fn frozen_coordinators_recover_under_every_protocol() {
        for protocol in [ProtocolKind::Pandora, ProtocolKind::Ford, ProtocolKind::Traditional] {
            let bench = MicroBench::new(256, 1.0);
            let config = SystemConfig::new(protocol);
            let cluster = build_cluster(&bench, config, LatencyModel::zero(), None, None);
            let mut rng = rand::SeedableRng::seed_from_u64(9);
            let frozen = freeze(&cluster, &bench, 3, &mut rng);
            assert_eq!(frozen.len(), 3);
            let (reports, _) = recover(&cluster, &frozen);
            // Pandora recovers one coordinator at a time; the others all
            // at once under a world pause.
            let expected = if protocol == ProtocolKind::Pandora { 3 } else { 1 };
            assert_eq!(reports.len(), expected, "{protocol:?}");
            // Every lock a frozen coordinator left is gone: all-write
            // transactions over the whole key space commit.
            let (mut co, _lease) = cluster.coordinator().unwrap();
            for key in 0..256 {
                co.run(|txn| txn.read_for_update(crate::micro::MICRO_TABLE, key).map(drop))
                    .unwrap_or_else(|e| panic!("{protocol:?}: key {key} after recovery: {e}"));
            }
        }
    }
}
