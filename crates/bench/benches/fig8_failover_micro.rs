//! **Figure 8** — Microbenchmark fail-over and post-failure throughput.
//!
//! Three lines, as in the paper:
//! * compute fault, failed coordinators respawned ("reuse"): throughput
//!   dips to roughly the surviving fraction, then returns to pre-failure
//!   level (paper: restored in <10 ms after recovery);
//! * compute fault, resources not reused: throughput settles at the
//!   surviving fraction;
//! * memory fault: brief stop-the-world reconfiguration (drop toward
//!   zero), then rapid recovery with promoted primaries.

use std::sync::Arc;
use std::time::Duration;

use pandora::ProtocolKind;
use pandora_bench::{
    cfg, micro_default, print_series, run_failover, window_mean, FailoverSpec, FaultKind,
};

fn main() {
    println!("# Figure 8 — microbenchmark fail-over (Pandora)");
    println!("# fault at t=3s; half the coordinators crash (or one memory node dies)");
    let base = FailoverSpec {
        duration: Duration::from_secs(8),
        fault_at: Duration::from_secs(3),
        latency: pandora_bench::failover_latency(),
        ..Default::default()
    };

    let reuse = run_failover(
        Arc::new(micro_default()),
        cfg(ProtocolKind::Pandora),
        &FailoverSpec {
            fault: FaultKind::ComputeCrash { fraction: 0.5 },
            respawn: true,
            ..base.clone()
        },
    );
    let no_reuse = run_failover(
        Arc::new(micro_default()),
        cfg(ProtocolKind::Pandora),
        &FailoverSpec {
            fault: FaultKind::ComputeCrash { fraction: 0.5 },
            respawn: false,
            ..base.clone()
        },
    );
    let memfault = run_failover(
        Arc::new(micro_default()),
        cfg(ProtocolKind::Pandora),
        &FailoverSpec { fault: FaultKind::MemoryKill { node: 2 }, ..base.clone() },
    );

    let pre = |s: &[pandora::TimelinePoint]| {
        window_mean(s, Duration::from_secs(1), Duration::from_secs(3))
    };
    let post = |s: &[pandora::TimelinePoint]| {
        window_mean(s, Duration::from_secs(5), Duration::from_secs(8))
    };
    println!(
        "\npre-fault tps  reuse {:.0} | no-reuse {:.0} | memfault {:.0}",
        pre(&reuse),
        pre(&no_reuse),
        pre(&memfault)
    );
    println!(
        "post-fault tps reuse {:.0} ({:.2}x of pre) | no-reuse {:.0} ({:.2}x) | memfault {:.0} ({:.2}x)",
        post(&reuse),
        post(&reuse) / pre(&reuse).max(1.0),
        post(&no_reuse),
        post(&no_reuse) / pre(&no_reuse).max(1.0),
        post(&memfault),
        post(&memfault) / pre(&memfault).max(1.0),
    );
    print_series(
        "Fig 8: tps over time (fault at t=3s)",
        &[("compute+reuse", reuse), ("compute no-reuse", no_reuse), ("memory fault", memfault)],
        250,
    );
}
