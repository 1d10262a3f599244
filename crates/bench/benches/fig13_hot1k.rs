//! **Figure 13** — Sensitivity to stalls, 1 000 hot keys (paper §6.4).
//!
//! Stall path: a transaction hitting an object that needs recovery waits
//! instead of aborting. With only 1 000 hot keys and half the
//! coordinators crashed, slow recovery quickly blocks *every* live
//! coordinator behind stray locks — throughput collapses to zero.
//! Pandora's millisecond recovery produces only a dip.

use std::sync::Arc;
use std::time::Duration;

use pandora::ProtocolKind;
use pandora_bench::{cfg, print_series, run_failover, window_mean, FailoverSpec, FaultKind};
use pandora_workloads::MicroBench;

fn hot_micro() -> MicroBench {
    MicroBench::new(65_536, 1.0).with_hot_keys(1_000).with_retry_until_commit()
}

fn main() {
    println!("# Figure 13 — stall path, 100% writes, hot keys = 1000, half coordinators crash");
    println!("# paper: slow recovery → throughput drops to zero; fast recovery → dip, then stable");
    let stall_cfg = |p| cfg(p).with_stalls(Duration::from_millis(50));
    let base = FailoverSpec {
        duration: Duration::from_secs(8),
        fault_at: Duration::from_secs(3),
        fault: FaultKind::ComputeCrash { fraction: 0.5 },
        latency: pandora_bench::failover_latency(),
        ..Default::default()
    };
    let fast = run_failover(
        Arc::new(hot_micro()),
        stall_cfg(ProtocolKind::Pandora),
        &FailoverSpec { recovery_delay: Duration::ZERO, ..base.clone() },
    );
    let slow = run_failover(
        Arc::new(hot_micro()),
        stall_cfg(ProtocolKind::Pandora),
        &FailoverSpec { recovery_delay: Duration::from_secs(4), ..base.clone() },
    );
    let during = |s: &[pandora::TimelinePoint]| {
        window_mean(s, Duration::from_millis(3500), Duration::from_millis(6500))
    };
    println!(
        "\npost-fault window tps  fast recovery: {:.0}   slow recovery: {:.0}",
        during(&fast),
        during(&slow)
    );
    print_series(
        "Fig 13: tps over time (fault at t=3s; slow recovery completes at ~7s)",
        &[("fast recovery (Pandora)", fast), ("slow recovery", slow)],
        250,
    );
}
