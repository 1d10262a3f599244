//! **Figure 14** — Sensitivity to stalls, 100 000 hot keys (paper §6.4).
//!
//! With a large hot set, few transactions conflict with the crashed
//! coordinators' stray locks: under slow recovery throughput declines
//! *gradually* (coordinators block one by one as they stumble over stray
//! locks) instead of collapsing; under fast recovery it stays steady at
//! the surviving-coordinator level.

use std::sync::Arc;
use std::time::Duration;

use pandora::ProtocolKind;
use pandora_bench::{cfg, print_series, run_failover, window_mean, FailoverSpec, FaultKind};
use pandora_workloads::MicroBench;

fn wide_micro() -> MicroBench {
    let keys = 100_000;
    MicroBench::new(keys, 1.0).with_hot_keys(keys).with_retry_until_commit()
}

fn main() {
    println!("# Figure 14 — stall path, 100% writes, hot keys = 100000, half coordinators crash");
    println!("# paper: slow recovery → gradual decline (not a collapse); fast recovery → steady");
    let stall_cfg = |p| cfg(p).with_stalls(Duration::from_millis(50));
    let base = FailoverSpec {
        duration: Duration::from_secs(8),
        fault_at: Duration::from_secs(3),
        fault: FaultKind::ComputeCrash { fraction: 0.5 },
        latency: pandora_bench::failover_latency(),
        ..Default::default()
    };
    let fast = run_failover(
        Arc::new(wide_micro()),
        stall_cfg(ProtocolKind::Pandora),
        &FailoverSpec { recovery_delay: Duration::ZERO, ..base.clone() },
    );
    let slow = run_failover(
        Arc::new(wide_micro()),
        stall_cfg(ProtocolKind::Pandora),
        &FailoverSpec { recovery_delay: Duration::from_secs(4), ..base.clone() },
    );
    let early = |s: &[pandora::TimelinePoint]| {
        window_mean(s, Duration::from_millis(3200), Duration::from_millis(4500))
    };
    let late = |s: &[pandora::TimelinePoint]| {
        window_mean(s, Duration::from_millis(5500), Duration::from_millis(7000))
    };
    println!("\nfast recovery: early {:.0} → late {:.0} tps (steady)", early(&fast), late(&fast));
    println!(
        "slow recovery: early {:.0} → late {:.0} tps (declining while strays accumulate)",
        early(&slow),
        late(&slow)
    );
    print_series(
        "Fig 14: tps over time (fault at t=3s)",
        &[("fast recovery (Pandora)", fast), ("slow recovery", slow)],
        250,
    );
}
