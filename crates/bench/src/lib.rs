//! Shared experiment toolkit for the per-table/per-figure bench targets.
//!
//! Every bench target (`crates/bench/benches/*.rs`, `harness = false`)
//! reproduces one table or figure of the paper's evaluation (§6) and
//! prints the same rows/series the paper reports. This library holds the
//! common machinery: the standard workload scales, figures 8–14 as a
//! table ([`FIGURES`]), and plain-text table printing. Cluster
//! construction, the fail-over experiment and freeze-and-recover are
//! `pandora_workloads::experiment`'s; nothing here re-implements them.
//!
//! Scale note (DESIGN.md §1): this host has one core and no RNIC, so
//! coordinator counts, dataset sizes, and run durations are scaled down
//! from the paper's 5-node / 72-core / 100 Gbps testbed. The *shapes*
//! (who wins, by what factor, where curves dip and recover) are the
//! reproduction target; EXPERIMENTS.md records paper-vs-measured.

use std::sync::Arc;
use std::time::Duration;

use pandora::{ProtocolKind, SystemConfig, TimelinePoint};
use pandora_workloads::{build_cluster, MicroBench, SmallBank, Tatp, Tpcc, Workload};

pub use pandora_workloads::{FailoverSpec, FaultKind};

// ----------------------------------------------------------------------
// Standard workload scales for the harness
// ----------------------------------------------------------------------

/// Default coordinator count for throughput experiments
/// ([`FailoverSpec::default`]'s). The paper uses 128 on 36-core servers;
/// one simulated core sustains 8 comfortably.
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

/// Latency model for the fail-over figures: sleep-scale round trips put
/// the system in the paper's *coordinator-bound* regime (each
/// coordinator spends most of its time waiting on the network), so
/// throughput is proportional to live coordinators and the fail-over
/// dip/recovery shape is visible even on a single-core host. Zero
/// latency would leave the single CPU saturated by the survivors and
/// flatten the dip (DESIGN.md §1).
pub fn failover_latency() -> rdma_sim::LatencyModel {
    rdma_sim::LatencyModel { rtt: Duration::from_micros(150), ns_per_kib: 0 }
}

// ----------------------------------------------------------------------
// Fail-over experiments
// ----------------------------------------------------------------------

/// Build the cluster at [`failover_latency`], run one fail-over
/// experiment (`pandora_workloads::run_failover`) and return the
/// throughput time series. Set `PANDORA_METRICS_JSON=<path>` to have the
/// run's full telemetry snapshot — timeline and recovery reports
/// included — written out as JSON as well.
pub fn run_failover(
    workload: Arc<dyn Workload>,
    config: SystemConfig,
    spec: &FailoverSpec,
) -> Vec<TimelinePoint> {
    let cluster = build_cluster(workload.as_ref(), config, failover_latency(), None, None);
    let run = pandora_workloads::run_failover(cluster, workload, spec);
    if let Some(path) = std::env::var("PANDORA_METRICS_JSON").ok().filter(|p| !p.is_empty()) {
        // Telemetry must never kill an experiment.
        match std::fs::write(&path, run.metrics.to_json()) {
            Ok(()) => eprintln!("metrics written to {path}"),
            Err(e) => eprintln!("warning: cannot write metrics to {path}: {e}"),
        }
    }
    run.metrics.timeline
}

/// One line of a figure: its label and what it sets in the figure's
/// spec.
pub struct Series {
    pub label: &'static str,
    pub fault: FaultKind,
    pub respawn: bool,
    pub recovery_delay: Duration,
}

/// One fail-over figure of the paper's §6.3–6.4, as data.
pub struct Figure {
    /// What `failover_figs -- <id>` selects.
    pub id: &'static str,
    /// What the figure shows and what the paper reports; printed first.
    pub caption: &'static str,
    /// Title of the tps-over-time table.
    pub title: &'static str,
    pub workload: fn() -> Arc<dyn Workload>,
    pub config: fn() -> SystemConfig,
    pub coordinators: usize,
    pub duration: Duration,
    pub fault_at: Duration,
    pub series: &'static [Series],
    /// Summary windows `(name, from_ms, to_ms)`: each series' mean tps
    /// over each is printed ahead of the time series.
    pub windows: &'static [(&'static str, u64, u64)],
}

const fn compute(label: &'static str, respawn: bool, recovery_delay: Duration) -> Series {
    Series { label, fault: FaultKind::ComputeCrash { fraction: 0.5 }, respawn, recovery_delay }
}

const fn memory(label: &'static str) -> Series {
    Series {
        label,
        fault: FaultKind::MemoryKill { node: 2 },
        respawn: false,
        recovery_delay: Duration::ZERO,
    }
}

/// Half the coordinators crash and are respawned; or memory node 2 dies.
const COMPUTE_OR_MEMORY: &[Series] =
    &[compute("compute fault", true, Duration::ZERO), memory("memory fault")];

/// Millisecond recovery against one that completes ~4 s after the fault.
const FAST_OR_SLOW: &[Series] = &[
    compute("fast recovery (Pandora)", false, Duration::ZERO),
    compute("slow recovery", false, Duration::from_secs(4)),
];

const PRE_POST: &[(&str, u64, u64)] = &[("pre-fault", 1000, 3000), ("post-fault", 5000, 8000)];

const RUN: Duration = Duration::from_secs(8);
const FAULT_AT: Duration = Duration::from_secs(3);

fn pandora_default() -> SystemConfig {
    cfg(ProtocolKind::Pandora)
}

/// The stall path: a transaction hitting an object that needs recovery
/// waits instead of aborting.
fn pandora_stalling() -> SystemConfig {
    cfg(ProtocolKind::Pandora).with_stalls(Duration::from_millis(50))
}

/// 100 % writes over `hot` hot keys, the client retrying the same keys
/// until it commits (paper §6.4).
fn hot_micro(keys: u64, hot: u64) -> Arc<dyn Workload> {
    Arc::new(MicroBench::new(keys, 1.0).with_hot_keys(hot).with_retry_until_commit())
}

/// Figures 8–14: Pandora at [`failover_latency`], the fault at t = 3 s
/// of 8.
pub static FIGURES: [Figure; 7] = [
    Figure {
        id: "fig8",
        caption: "Figure 8 — microbenchmark fail-over and post-failure throughput (Pandora)\n\
                  paper: with the failed coordinators reused, throughput dips to the surviving \
                  fraction, then returns to the pre-failure level (<10 ms after recovery); \
                  without reuse it settles at the surviving fraction; a memory fault is a brief \
                  stop-the-world, then rapid recovery with promoted primaries",
        title: "Fig 8: tps over time (fault at t=3s)",
        workload: || Arc::new(micro_default()),
        config: pandora_default,
        coordinators: DEFAULT_COORDINATORS,
        duration: RUN,
        fault_at: FAULT_AT,
        series: &[
            compute("compute+reuse", true, Duration::ZERO),
            compute("compute no-reuse", false, Duration::ZERO),
            memory("memory fault"),
        ],
        windows: PRE_POST,
    },
    Figure {
        id: "fig9",
        caption: "Figure 9 — SmallBank fail-over (Pandora)\n\
                  paper: a compute fault dips throughput to roughly the surviving fraction \
                  without stopping the KVS; a memory fault briefly stops the world and rapidly \
                  recovers",
        title: "Fig 9: SmallBank tps over time",
        workload: || Arc::new(smallbank_default()),
        config: pandora_default,
        coordinators: DEFAULT_COORDINATORS,
        duration: RUN,
        fault_at: FAULT_AT,
        series: COMPUTE_OR_MEMORY,
        windows: &[
            ("pre-fault", 1000, 3000),
            ("fail-over window", 3000, 3500),
            ("post-fault", 5000, 8000),
        ],
    },
    Figure {
        id: "fig10",
        caption: "Figure 10 — TATP fail-over (Pandora)\n\
                  paper: TATP is 80 % read-only, so the compute-fault dip is the lost \
                  coordinators, not conflicts",
        title: "Fig 10: TATP tps over time",
        workload: || Arc::new(tatp_default()),
        config: pandora_default,
        coordinators: DEFAULT_COORDINATORS,
        duration: RUN,
        fault_at: FAULT_AT,
        series: COMPUTE_OR_MEMORY,
        windows: PRE_POST,
    },
    Figure {
        id: "fig11",
        caption: "Figure 11 — TPC-C fail-over (Pandora)\n\
                  paper: hot district rows make the crashed coordinators' stray locks more \
                  visible until recovery releases them",
        title: "Fig 11: TPC-C tps over time",
        workload: || Arc::new(tpcc_default()),
        config: pandora_default,
        coordinators: DEFAULT_COORDINATORS,
        duration: RUN,
        fault_at: FAULT_AT,
        series: COMPUTE_OR_MEMORY,
        windows: PRE_POST,
    },
    Figure {
        id: "fig12",
        caption: "Figure 12 — SmallBank fail-over, half the coordinators (low contention)\n\
                  paper: without bandwidth over-subscription, reusing the failed coordinators \
                  restores the pre-failure throughput (§6.4)",
        title: "Fig 12: SmallBank (half coordinators) tps over time",
        workload: || Arc::new(smallbank_default()),
        config: pandora_default,
        coordinators: DEFAULT_COORDINATORS / 2,
        duration: RUN,
        fault_at: FAULT_AT,
        series: COMPUTE_OR_MEMORY,
        windows: PRE_POST,
    },
    Figure {
        id: "fig13",
        caption: "Figure 13 — stall path, 100% writes, hot keys = 1000, half coordinators crash\n\
                  paper: slow recovery blocks every live coordinator behind stray locks and \
                  throughput drops to zero; Pandora's millisecond recovery is a dip, then stable",
        title: "Fig 13: tps over time (fault at t=3s; slow recovery completes at ~7s)",
        workload: || hot_micro(65_536, 1_000),
        config: pandora_stalling,
        coordinators: DEFAULT_COORDINATORS,
        duration: RUN,
        fault_at: FAULT_AT,
        series: FAST_OR_SLOW,
        windows: &[("post-fault window", 3500, 6500)],
    },
    Figure {
        id: "fig14",
        caption:
            "Figure 14 — stall path, 100% writes, hot keys = 100000, half coordinators crash\n\
                  paper: under slow recovery coordinators block one by one as they stumble over \
                  stray locks — a gradual decline, not a collapse; under fast recovery \
                  throughput stays steady at the surviving level",
        title: "Fig 14: tps over time (fault at t=3s)",
        workload: || hot_micro(100_000, 100_000),
        config: pandora_stalling,
        coordinators: DEFAULT_COORDINATORS,
        duration: RUN,
        fault_at: FAULT_AT,
        series: FAST_OR_SLOW,
        windows: &[("early", 3200, 4500), ("late", 5500, 7000)],
    },
];

impl Figure {
    pub fn by_id(id: &str) -> Option<&'static Figure> {
        FIGURES.iter().find(|f| f.id == id)
    }

    /// The spec of one of this figure's series.
    pub fn spec(&self, series: &Series) -> FailoverSpec {
        FailoverSpec {
            coordinators: self.coordinators,
            duration: self.duration,
            fault_at: self.fault_at,
            fault: series.fault,
            respawn: series.respawn,
            recovery_delay: series.recovery_delay,
            ..Default::default()
        }
    }
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

/// Convenience: a `SystemConfig` for a protocol.
pub fn cfg(protocol: ProtocolKind) -> SystemConfig {
    SystemConfig::new(protocol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_failover_figure_resolves_and_faults_inside_its_run() {
        for n in 8..=14 {
            let id = format!("fig{n}");
            let fig = Figure::by_id(&id).unwrap_or_else(|| panic!("{id} is not in FIGURES"));
            assert!(fig.fault_at < fig.duration, "{id}: the fault never fires");
            assert!(!fig.series.is_empty() && !fig.windows.is_empty(), "{id}: nothing to print");
            for &(name, from, to) in fig.windows {
                assert!(from < to && to <= fig.duration.as_millis() as u64, "{id}: window {name}");
            }
        }
        assert_eq!(FIGURES.len(), 7);
        assert!(Figure::by_id("fig7").is_none());
    }
}
