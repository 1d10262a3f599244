//! Shared experiment toolkit for the per-table/per-figure bench targets.
//!
//! Every bench target (`crates/bench/benches/*.rs`, `harness = false`)
//! reproduces one table or figure of the paper's evaluation (§6) and
//! prints the same rows/series the paper reports. This library holds the
//! common machinery: cluster construction per workload, the fail-over
//! experiment driver (runner + sampler + fault injection + FD), and
//! plain-text table printing.
//!
//! Scale note (DESIGN.md §1): this host has one core and no RNIC, so
//! coordinator counts, dataset sizes, and run durations are scaled down
//! from the paper's 5-node / 72-core / 100 Gbps testbed. The *shapes*
//! (who wins, by what factor, where curves dip and recover) are the
//! reproduction target; EXPERIMENTS.md records paper-vs-measured.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pandora::{
    MemoryFailureHandler, MetricsSnapshot, ProtocolKind, SimCluster, SystemConfig, TimelinePoint,
};
use pandora_workloads::{
    with_tables, MicroBench, RunnerConfig, SmallBank, Tatp, Tpcc, Workload, WorkloadRunner,
};
use rdma_sim::NodeId;

// ----------------------------------------------------------------------
// Standard workload scales for the harness
// ----------------------------------------------------------------------

/// Default coordinator count for throughput experiments. The paper uses
/// 128 on 36-core servers; one simulated core sustains 8 comfortably.
pub const DEFAULT_COORDINATORS: usize = 8;

pub fn micro_default() -> MicroBench {
    MicroBench::new(65_536, 0.5)
}

pub fn micro_all_writes() -> MicroBench {
    MicroBench::new(65_536, 1.0)
}

pub fn smallbank_default() -> SmallBank {
    SmallBank::new(16_384)
}

pub fn tatp_default() -> Tatp {
    Tatp::new(8_192)
}

pub fn tpcc_default() -> Tpcc {
    // 4 warehouses = 40 districts: enough to keep 8 coordinators from
    // serializing on the district hot rows while preserving TPC-C's
    // contention profile.
    Tpcc::new(4)
}

/// Registered-memory requirement per node for a workload's tables
/// (segments are hosted on every node), plus log slabs and headroom.
pub fn capacity_for(workload: &dyn Workload) -> u64 {
    let segments: u64 = workload.tables().iter().map(|t| t.segment_bytes()).sum();
    (segments + (96 << 20)).next_power_of_two()
}

/// Build a loaded 3-node (f+1 = 2) cluster for `workload`.
pub fn cluster_for(workload: &dyn Workload, config: SystemConfig) -> Arc<SimCluster> {
    cluster_with_latency(workload, config, rdma_sim::LatencyModel::zero())
}

/// Like [`cluster_for`] with an injected per-verb latency model.
pub fn cluster_with_latency(
    workload: &dyn Workload,
    config: SystemConfig,
    latency: rdma_sim::LatencyModel,
) -> Arc<SimCluster> {
    let builder = with_tables(
        SimCluster::builder(config.protocol)
            .memory_nodes(3)
            .replication(2)
            .capacity_per_node(capacity_for(workload))
            .max_coord_slots(2048)
            .config(config)
            .latency(latency),
        workload,
    );
    let cluster = builder.build().expect("build bench cluster");
    workload.load(&cluster);
    Arc::new(cluster)
}

/// Latency model for the fail-over figures: sleep-scale round trips put
/// the system in the paper's *coordinator-bound* regime (each
/// coordinator spends most of its time waiting on the network), so
/// throughput is proportional to live coordinators and the fail-over
/// dip/recovery shape is visible even on a single-core host. Zero
/// latency would leave the single CPU saturated by the survivors and
/// flatten the dip (DESIGN.md §1).
pub fn failover_latency() -> rdma_sim::LatencyModel {
    rdma_sim::LatencyModel { rtt: std::time::Duration::from_micros(150), ns_per_kib: 0 }
}

// ----------------------------------------------------------------------
// Fail-over experiment driver
// ----------------------------------------------------------------------

/// The fault injected mid-run.
#[derive(Debug, Clone, Copy)]
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
    /// Delay FD detection by this much (models a slow/naive recovery for
    /// the fig. 13/14 sensitivity study; zero = normal 5 ms detection).
    pub recovery_delay: Duration,
    pub sample_interval: Duration,
    pub seed: u64,
    /// Per-verb latency model ([`failover_latency`] for fault figures).
    pub latency: rdma_sim::LatencyModel,
}

impl Default for FailoverSpec {
    fn default() -> Self {
        FailoverSpec {
            coordinators: DEFAULT_COORDINATORS,
            duration: Duration::from_secs(8),
            fault_at: Duration::from_secs(3),
            fault: FaultKind::None,
            respawn: false,
            recovery_delay: Duration::ZERO,
            sample_interval: Duration::from_millis(100),
            seed: 7,
            latency: rdma_sim::LatencyModel::zero(),
        }
    }
}

/// Run one fail-over experiment on a pre-built cluster and return the
/// throughput time series.
pub fn run_failover_on<W: Workload>(
    cluster: Arc<SimCluster>,
    workload: Arc<W>,
    spec: &FailoverSpec,
) -> Vec<TimelinePoint> {
    run_failover_with_metrics(cluster, workload, spec).0
}

/// Like [`run_failover_on`], also returning the run's full telemetry
/// snapshot (per-phase latencies, abort taxonomy, fabric verb counters,
/// recovery-step timings). Set `PANDORA_METRICS_JSON=<path>` to have the
/// snapshot written out as JSON as well.
pub fn run_failover_with_metrics<W: Workload>(
    cluster: Arc<SimCluster>,
    workload: Arc<W>,
    spec: &FailoverSpec,
) -> (Vec<TimelinePoint>, MetricsSnapshot) {
    let mut runner = WorkloadRunner::spawn(
        Arc::clone(&cluster),
        workload,
        RunnerConfig {
            coordinators: spec.coordinators,
            seed: spec.seed,
            ..RunnerConfig::default()
        },
    );
    let sampler = runner.timeline_sampler(spec.sample_interval);
    let t0 = Instant::now();

    std::thread::sleep(spec.fault_at);
    let crashed = match spec.fault {
        FaultKind::None => Vec::new(),
        FaultKind::ComputeCrash { fraction } => {
            let n = ((spec.coordinators as f64) * fraction).round() as usize;
            runner.crash_first(n)
        }
        FaultKind::MemoryKill { node } => {
            cluster.ctx.fabric.kill_node(NodeId(node)).expect("kill node");
            // Detection delay, then the reconfiguration protocol.
            std::thread::sleep(Duration::from_millis(5));
            let handler =
                MemoryFailureHandler::new(Arc::clone(&cluster.ctx)).expect("memfail handler");
            handler.handle_failure(NodeId(node));
            Vec::new()
        }
    };
    if !crashed.is_empty() {
        // Drive detection + recovery explicitly so the recovery delay is
        // controllable (FD timeout itself is 5 ms).
        let delay = spec.recovery_delay.max(cluster.ctx.config.fd_timeout);
        let cluster2 = Arc::clone(&cluster);
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            for coord in crashed {
                cluster2.fd.declare_failed(coord);
            }
        });
        if spec.respawn {
            // Wait for recovery of every crashed coordinator, then bring
            // replacements up (paper §6.4: "the failed coordinators are
            // brought back in less than 10ms after the fault").
            let expect = ((spec.coordinators as f64)
                * match spec.fault {
                    FaultKind::ComputeCrash { fraction } => fraction,
                    _ => 0.0,
                })
            .round() as usize;
            let deadline = Instant::now() + Duration::from_secs(10);
            while cluster.fd.reports().len() < expect && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            runner.respawn_crashed();
        }
    }

    let remaining = spec.duration.saturating_sub(t0.elapsed());
    std::thread::sleep(remaining);
    let samples = sampler.finish();
    let registry = runner.metrics();
    runner.stop_and_join();
    registry.add_reports(&cluster.fd.reports());
    let snapshot = registry.snapshot();
    if let Ok(path) = std::env::var("PANDORA_METRICS_JSON") {
        if !path.is_empty() {
            write_metrics_json(&path, &snapshot);
        }
    }
    (samples, snapshot)
}

/// Write a metrics snapshot as JSON, logging (not panicking) on I/O
/// failure — telemetry must never kill an experiment.
pub fn write_metrics_json(path: &str, snapshot: &MetricsSnapshot) {
    match std::fs::write(path, snapshot.to_json()) {
        Ok(()) => eprintln!("metrics written to {path}"),
        Err(e) => eprintln!("warning: cannot write metrics to {path}: {e}"),
    }
}

/// Build the cluster and run one fail-over experiment.
pub fn run_failover<W: Workload>(
    workload: Arc<W>,
    config: SystemConfig,
    spec: &FailoverSpec,
) -> Vec<TimelinePoint> {
    let cluster = cluster_with_latency(workload.as_ref(), config, spec.latency);
    run_failover_on(cluster, workload, spec)
}

// ----------------------------------------------------------------------
// Output helpers
// ----------------------------------------------------------------------

/// Print a titled, aligned plain-text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Print several sample series as aligned time/tps columns (the textual
/// equivalent of the paper's throughput-over-time figures).
pub fn print_series(title: &str, series: &[(&str, Vec<TimelinePoint>)], bucket_ms: u64) {
    let mut headers = vec!["t(s)"];
    for (name, _) in series {
        headers.push(name);
    }
    let max_ms = series.iter().flat_map(|(_, s)| s.iter().map(|x| x.at_ms)).max().unwrap_or(0);
    let mut rows = Vec::new();
    let mut t = bucket_ms;
    while t <= max_ms {
        let mut row = vec![format!("{:.1}", t as f64 / 1000.0)];
        for (_, s) in series {
            // Points whose interval ends in (t - bucket, t], time-weighted.
            let (from, to) = (t - bucket_ms + 1, t + 1);
            let sampled = s.iter().any(|x| (from..to).contains(&x.at_ms));
            let tps = pandora::mean_tps(s, from, to);
            row.push(if sampled { format!("{tps:.0}") } else { "-".into() });
        }
        rows.push(row);
        t += bucket_ms;
    }
    print_table(title, &headers, &rows);
}

/// Mean tps in a window of a sample series.
pub fn window_mean(samples: &[TimelinePoint], from: Duration, to: Duration) -> f64 {
    pandora::mean_tps(samples, from.as_millis() as u64, to.as_millis() as u64)
}

/// A steady-state run: mean committed tps over `[warmup, duration)`.
pub fn steady_state_tps<W: Workload>(
    workload: Arc<W>,
    config: SystemConfig,
    coordinators: usize,
    duration: Duration,
    warmup: Duration,
) -> f64 {
    let spec = FailoverSpec {
        coordinators,
        duration,
        fault_at: duration, // never fires
        fault: FaultKind::None,
        ..Default::default()
    };
    let samples = run_failover(workload, config, &spec);
    window_mean(&samples, warmup, duration)
}

/// Convenience: a `SystemConfig` for a protocol.
pub fn cfg(protocol: ProtocolKind) -> SystemConfig {
    SystemConfig::new(protocol)
}
